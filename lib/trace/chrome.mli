(** Chrome/Perfetto trace-event JSON exporter (load the file at
    ui.perfetto.dev or chrome://tracing).

    One process per job, named after its label and numbered by its
    position in the job list; one track per simulated thread, plus a
    "(setup)" track for transfers issued outside any thread and a
    "(metrics)" counter track when the job has a metrics sink.  The
    output is a pure function of the traces, so the same seeds give
    byte-identical files at any [--jobs] count. *)

val export_buffer :
  ?metrics:(string * Ssync_metrics.Metrics.t) list ->
  Buffer.t ->
  (string * Trace.t) list ->
  unit
(** [export_buffer ?metrics b jobs] appends the trace-event document of
    [(label, trace)] [jobs] to [b].  [metrics] binds job labels to
    sampled metric accumulators, rendered as counter tracks; the first
    binding of a label wins. *)

val export_string :
  ?metrics:(string * Ssync_metrics.Metrics.t) list ->
  (string * Trace.t) list ->
  string

val export_file :
  ?metrics:(string * Ssync_metrics.Metrics.t) list ->
  string ->
  (string * Trace.t) list ->
  unit
(** Write {!export_buffer}'s document to the file at the path. *)
