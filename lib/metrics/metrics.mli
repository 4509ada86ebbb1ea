(** Deterministic virtual-time telemetry.

    A metrics accumulator samples typed gauges and counters onto a
    fixed virtual-cycle grid: every contribution is a [(kind, id,
    bucket) -> cycles] sum whose key derives purely from virtual
    timestamps and stable identifiers (resource ids, line ids).  Sums
    commute, so the accumulated table is independent of the order in
    which contributions arrive — the property that makes the dump
    byte-identical at any [--jobs] (per-job sinks, fresh per job).

    The discipline mirrors [Trace]: a job that wants samples installs
    a sink in the domain that runs it; instrumentation sites cache the
    sink at creation, add every sample to it as they take it, and pay
    one option check when metrics are off; probes are time-free, so
    sampled runs replay the identical virtual-time schedule. *)

type t

(** {1 Kinds}

    Timeline kinds ([id] in brackets): *)

(** [k_dir_busy] home-directory busy cycles [node]; [k_link_busy] link
    busy cycles [lo * n_nodes + hi]; [k_dir_queued]/[k_link_queued]
    wait cycles attributed to a directory [node] / link [link];
    [k_line_occ] line-occupancy cycles [line id]; [k_line_sharers]
    sharer-count-weighted cycles [line id]; [k_lock_waiters]
    parked-waiter-weighted cycles [line id]; [k_runnable]/[k_spinning]/
    [k_parked] thread-count-weighted cycles [0]; [k_parks]/[k_wakes]
    event counters [0]. *)

val k_dir_busy : int

val k_link_busy : int

val k_dir_queued : int

val k_link_queued : int

val k_line_occ : int

val k_line_sharers : int

val k_lock_waiters : int

val k_runnable : int

val k_spinning : int

val k_parked : int

val k_parks : int

val k_wakes : int

val kind_name : int -> string
val n_kinds : int

(** {1 Sinks} *)

val create : ?grid:int -> unit -> t
(** Fresh accumulator at epoch base 0, [grid] virtual cycles per bucket
    (default [65536]).
    @raise Invalid_argument if [grid < 1]. *)

val start : ?grid:int -> unit -> t
(** Install a fresh accumulator ({!create}) as the calling domain's
    sink. *)

val stop : unit -> t option
(** Uninstall and return the domain's sink. *)

val current : unit -> t option
(** The domain's sink, if one is installed. *)

(** {1 Accumulation} *)

val span : t -> kind:int -> id:int -> t0:int -> t1:int -> weight:int -> unit
(** Add [weight] cycles-per-cycle over virtual span [\[t0, t1)]
    (epoch-relative; the accumulator's base is applied).  No-op when
    [t1 <= t0] or [weight = 0].  Allocates nothing once the keys it
    touches are present.
    @raise Invalid_argument if it would record a negative [kind]. *)

val bump : t -> kind:int -> id:int -> ts:int -> int -> unit
(** Add a point count at virtual time [ts] (epoch-relative).
    @raise Invalid_argument if it would record a negative [kind]. *)

val new_epoch : t -> unit
(** Advance the epoch base past every sample recorded so far, rounded
    up to the grid, so a new job segment on the same sink cannot
    collide with the previous one. *)

(** {1 Reading} *)

val max_ts : t -> int
(** Highest absolute virtual time sampled (epoch base applied). *)

val base : t -> int

val grid : t -> int

val total : t -> kind:int -> int
(** Sum over every id and bucket of [kind]. *)

val total_id : t -> kind:int -> id:int -> int

val iter : t -> (kind:int -> id:int -> bucket:int -> int -> unit) -> unit
(** Visit samples in table order, which is unspecified. *)

val iter_sorted : t -> (kind:int -> id:int -> bucket:int -> int -> unit) -> unit
(** Visit samples in (kind, id, bucket) order — the dump order. *)

val dump_csv : Buffer.t -> (string * t) list -> unit
(** One section per job, in the given (submission) order: a [# job
    <label>] header, then [kind,id,bucket,value] lines in
    {!iter_sorted} order.  The file header names the first job's grid
    (the default for no job), so the jobs' sinks should share one. *)

val dump_json : Buffer.t -> (string * t) list -> unit
(** Same content as {!dump_csv} as a JSON document. *)

val dump_file : string -> (string * t) list -> unit
(** Write {!dump_json} if the path ends in [.json], else {!dump_csv}. *)

(** {1 Export writer}

    The buffer writer behind the [--trace] and [--metrics] exporters.
    Every string an exporter writes inside JSON quotes goes through
    {!Writer.escaped} or {!Writer.escape}.  {!Writer.int} and
    {!Writer.escaped} allocate nothing. *)
module Writer : sig
  val int : Buffer.t -> int -> unit
  (** Append [n] in decimal, exactly as [string_of_int n] spells it. *)

  val escaped : Buffer.t -> string -> unit
  (** Append [s] as the body of a JSON string: double quote and
      backslash get a backslash, bytes below 0x20 become [\u00XX], and
      every other byte is copied unchanged (so UTF-8 in, valid JSON
      out). *)

  val escape : string -> string
  (** {!escaped} into a string, for names escaped once and written many
      times; [s] itself when it needs no escaping. *)
end
