(* Chrome/Perfetto trace-event JSON exporter.

   One exported process per job (pid = 1 + submission index, named
   after the job's label) and one track per simulated thread (tid),
   so a figure's whole fan-out opens as side-by-side timelines in
   ui.perfetto.dev or chrome://tracing.

   Mapping:
   - lock wait      -> "B"/"E" slice "wait NAME"
   - lock hold      -> "B"/"E" slice "hold NAME" (args: wait, handoff
                       distance class)
   - parked spinner -> "B"/"E" slice "parked"
   - coherence
     transfer       -> "X" complete event, dur = cycles charged to the
                       thread (args: addr, pre/post state, distance,
                       service, queued)
   - fault / msg
     send / recv    -> "i" instant events
   - spawn,
     process names  -> "M" metadata events

   Timestamps are virtual cycles written into the [ts]/[dur]
   microsecond fields (the viewer's "us" then reads as cycles); they
   are emitted in per-track monotone order, and contain nothing
   host-dependent, so the same seeds produce byte-identical files at
   any [--jobs] count.

   The ring buffer may have dropped a slice's opening event; the
   per-track slice stack below drops the matching close instead of
   emitting an unbalanced "E", so the output always parses.

   An export runs to hundreds of MB, so every event is written
   straight into the buffer through [Metrics.Writer]: ints as digits,
   names escaped once (per lock and channel per job, per transfer kind
   per export call) and copied from then on. *)

open Ssync_platform
module Metrics = Ssync_metrics.Metrics
module W = Metrics.Writer

(* Track id for events issued outside any simulated thread (memory
   setup, ccbench drivers). *)
let setup_track = 9999

(* Dedicated track for sampled metric counters (engine-global, not
   per thread). *)
let counter_track = 9998
let track tid = if tid < 0 then setup_track else tid

(* [a] grown to hold index [i] ([i >= Array.length a]); new cells
   hold [fill]. *)
let grow a i fill =
  let n = Array.length a in
  let a' = Array.make (Int.max (i + 1) (2 * n)) fill in
  Array.blit a 0 a' 0 n;
  a'

(* Transfer names ("load M>S two hops") are cached by (op, pre, post,
   distance), read off the event's head word, in one table per domain,
   each built the first time it is written and reused by every later
   export in that domain. *)
let xfer_name xfer_names h =
  let i = Trace.xfer_key h in
  let s = xfer_names.(i) in
  if String.length s > 0 then s
  else begin
    let s =
      W.escape
        (String.concat ""
           [
             Arch.memop_name (Trace.head_op h); " ";
             String.make 1 (Arch.cstate_letter (Trace.head_pre h)); ">";
             String.make 1 (Arch.cstate_letter (Trace.head_post h)); " ";
             Arch.distance_name (Trace.head_dist h);
           ])
    in
    xfer_names.(i) <- s;
    s
  end

let xfer_key = Domain.DLS.new_key (fun () -> Array.make Trace.n_xfer_keys "")

(* What a track currently has open, innermost first. *)
type slice = Wait of int | Hold of int | Parked

(* Lock or channel names, escaped on first use and indexed by id.
   [Trace.new_lock]/[new_chan] ids are dense from 0; a negative id is
   not registered and is escaped at every use. *)
type names = {
  mutable esc : string option array;
  of_id : Trace.t -> int -> string;
}

(* One job's export: its buffer and pid, and per-track state indexed
   by [track tid]. *)
type job = {
  b : Buffer.t;
  pid_tid : string;  (* ,"pid":<pid>,"tid": *)
  tr : Trace.t;
  xfer : string array;  (* transfer names, "" until built *)
  mutable named : bool array;  (* thread_name written *)
  mutable stacks : slice list array;
  locks : names;
  chans : names;
}

let escaped j n id =
  if id < 0 then W.escape (n.of_id j.tr id)
  else begin
    if id >= Array.length n.esc then n.esc <- grow n.esc id None;
    match n.esc.(id) with
    | Some s -> s
    | None ->
        let s = W.escape (n.of_id j.tr id) in
        n.esc.(id) <- Some s;
        s
  end

let stack j tid =
  let t = track tid in
  if t >= Array.length j.stacks then j.stacks <- grow j.stacks t [];
  t

(* [s] then [n] in decimal. *)
let str_int b s n =
  Buffer.add_string b s;
  W.int b n

(* Write an event up to its tid: the caller appends the remaining
   fields and the closing brace.  [pfx] and [name] are escaped. *)
let head j ~pfx ~name ~ph ~ts ~tid =
  let b = j.b in
  Buffer.add_string b ",\n{\"name\":\"";
  Buffer.add_string b pfx;
  Buffer.add_string b name;
  Buffer.add_string b "\",\"ph\":\"";
  Buffer.add_string b ph;
  str_int b "\",\"ts\":" ts;
  str_int b j.pid_tid tid

let close j ~pfx ~name ~ts ~tid =
  head j ~pfx ~name ~ph:"E" ~ts ~tid;
  Buffer.add_char j.b '}'

(* Instant with thread scope; the caller appends any args and '}'. *)
let instant j ~pfx ~name ~ts ~tid =
  head j ~pfx ~name ~ph:"i" ~ts ~tid;
  Buffer.add_string j.b ",\"s\":\"t\""

let meta_head b ~name ~pid ~tid =
  Buffer.add_string b ",\n{\"name\":\"";
  Buffer.add_string b name;
  str_int b "\",\"ph\":\"M\",\"ts\":0,\"pid\":" pid;
  str_int b ",\"tid\":" tid;
  Buffer.add_string b ",\"args\":{"

let meta b ~name ~pid ~tid ~value =
  meta_head b ~name ~pid ~tid;
  Buffer.add_string b "\"name\":\"";
  W.escaped b value;
  Buffer.add_string b "\"}}"

(* Write the event at offset [o] of the ring [r]. *)
let event j r o =
  let b = j.b in
  let ts = r.(o) and h = r.(o + 1) and tid = r.(o + 2) in
  match Trace.kind h with
  | Thread ->
      instant j ~pfx:"" ~name:"spawn" ~ts ~tid:(track tid);
      Buffer.add_char b '}'
  | Wait ->
      let lock = r.(o + 3) in
      let t = stack j tid in
      j.stacks.(t) <- Wait lock :: j.stacks.(t);
      head j ~pfx:"wait " ~name:(escaped j j.locks lock) ~ph:"B" ~ts ~tid:t;
      Buffer.add_char b '}'
  | Acq ->
      let lock = r.(o + 3) in
      let t = stack j tid in
      (match j.stacks.(t) with
      | Wait l :: rest when l = lock ->
          j.stacks.(t) <- rest;
          close j ~pfx:"wait " ~name:(escaped j j.locks lock) ~ts ~tid:t
      | _ -> ());
      j.stacks.(t) <- Hold lock :: j.stacks.(t);
      head j ~pfx:"hold " ~name:(escaped j j.locks lock) ~ph:"B" ~ts ~tid:t;
      str_int b ",\"args\":{\"wait\":" r.(o + 4);
      let rank = Trace.head_handoff h in
      if rank >= 0 then begin
        Buffer.add_string b ",\"handoff\":\"";
        W.escaped b (Arch.distance_name Cost_model.class_of_rank.(rank));
        Buffer.add_char b '"'
      end;
      Buffer.add_string b "}}"
  | Rel -> (
      let lock = r.(o + 3) in
      let t = stack j tid in
      match j.stacks.(t) with
      | Hold l :: rest when l = lock ->
          j.stacks.(t) <- rest;
          close j ~pfx:"hold " ~name:(escaped j j.locks lock) ~ts ~tid:t
      | _ ->
          instant j ~pfx:"release " ~name:(escaped j j.locks lock) ~ts ~tid:t;
          str_int b ",\"args\":{\"held\":" r.(o + 4);
          Buffer.add_string b "}}")
  | Xfer ->
      head j ~pfx:"" ~name:(xfer_name j.xfer h) ~ph:"X" ~ts ~tid:(track tid);
      str_int b ",\"dur\":" r.(o + 4);
      str_int b ",\"args\":{\"addr\":" r.(o + 3);
      str_int b ",\"core\":" (Trace.head_core h);
      str_int b ",\"service\":" r.(o + 5);
      str_int b ",\"queued\":" r.(o + 6);
      str_int b ",\"rqueued\":" r.(o + 7);
      Buffer.add_string b "}}"
  | Park ->
      let t = stack j tid in
      j.stacks.(t) <- Parked :: j.stacks.(t);
      head j ~pfx:"" ~name:"parked" ~ph:"B" ~ts ~tid:t;
      str_int b ",\"args\":{\"addr\":" r.(o + 3);
      Buffer.add_string b "}}"
  | Wake -> (
      let t = stack j tid in
      match j.stacks.(t) with
      | Parked :: rest ->
          j.stacks.(t) <- rest;
          close j ~pfx:"" ~name:"parked" ~ts ~tid:t
      | _ ->
          instant j ~pfx:"" ~name:"wake" ~ts ~tid:t;
          Buffer.add_char b '}')
  | Fault ->
      let name =
        match Trace.head_fault h with
        | Jitter -> "jitter"
        | Preempt -> "preempt"
        | Crash -> "crash"
      in
      instant j ~pfx:"" ~name ~ts ~tid:(track tid);
      str_int b ",\"args\":{\"cycles\":" r.(o + 3);
      Buffer.add_string b "}}"
  | (Send | Recv) as k ->
      let name = match k with Send -> "send" | _ -> "recv" in
      instant j ~pfx:"" ~name ~ts ~tid:(track tid);
      Buffer.add_string b ",\"args\":{\"chan\":\"";
      Buffer.add_string b (escaped j j.chans r.(o + 3));
      Buffer.add_string b "\"}}"

(* One counter sample: kind [k]'s value [v] at the start of bucket
   [bk]. *)
let counter j ~w k bk v =
  head j ~pfx:"" ~name:(W.escape (Metrics.kind_name k)) ~ph:"C" ~ts:(bk * w)
    ~tid:counter_track;
  str_int j.b ",\"args\":{\"value\":" v;
  Buffer.add_string j.b "}}"

(* Sinks whose (kind, bucket) box is too sparse for the grid below: the
   same samples through a table and a sort. *)
let counters_sparse j m ~w =
  let sums = Hashtbl.create 64 in
  Metrics.iter m (fun ~kind ~id:_ ~bucket v ->
      let key = (bucket, kind) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt sums key) in
      Hashtbl.replace sums key (prev + v));
  let cells = Hashtbl.fold (fun key v acc -> (key, v) :: acc) sums [] in
  let zeros =
    List.filter_map
      (fun ((bk, k), _) ->
        if Hashtbl.mem sums (bk + 1, k) then None else Some ((bk + 1, k), 0))
      cells
  in
  List.iter
    (fun ((bk, k), v) -> counter j ~w k bk v)
    (List.sort compare (zeros @ cells))

(* Sampled metric timelines as Perfetto counter tracks: one counter
   per kind (ids aggregated), bucket-major so the shared tid's
   timestamps stay monotone; a zero sample after each run of activity
   stops the viewer's step function from holding the last value
   forever.  The ids are summed out into a dense grid over the box of
   (kind, bucket) keys, one column per bucket plus one past the last,
   walked bucket by bucket: a present cell writes its sum, and an
   absent one whose previous bucket was present writes the closing
   zero.  A box of more than 16 cells per sample, plus 4096, goes
   through [counters_sparse] instead. *)
let counters j m =
  let w = Metrics.grid m in
  let kmin = ref max_int and kmax = ref (-1) in
  let bmin = ref max_int and bmax = ref min_int and n = ref 0 in
  Metrics.iter m (fun ~kind ~id:_ ~bucket _ ->
      incr n;
      if kind < !kmin then kmin := kind;
      if kind > !kmax then kmax := kind;
      if bucket < !bmin then bmin := bucket;
      if bucket > !bmax then bmax := bucket);
  let kmin = !kmin and bmin = !bmin in
  let nk = !kmax - kmin + 1 and nb = !bmax - bmin + 2 in
  if !n = 0 then ()
  else if nk <= 0 || nb <= 0 || nk > (4096 + (16 * !n)) / nb then
    counters_sparse j m ~w
  else begin
    let sums = Array.make (nk * nb) 0 and present = Bytes.make (nk * nb) '0' in
    Metrics.iter m (fun ~kind ~id:_ ~bucket v ->
        let c = ((bucket - bmin) * nk) + kind - kmin in
        sums.(c) <- sums.(c) + v;
        Bytes.unsafe_set present c '1');
    for c = 0 to (nk * nb) - 1 do
      let k = kmin + (c mod nk) and bk = bmin + (c / nk) in
      if Bytes.get present c = '1' then counter j ~w k bk sums.(c)
      else if c >= nk && Bytes.get present (c - nk) = '1' then
        counter j ~w k bk 0
    done
  end

let export_job b ~xfer ~pid ~label ?metrics (tr : Trace.t) =
  meta b ~name:"process_name" ~pid ~tid:0 ~value:label;
  meta_head b ~name:"process_sort_index" ~pid ~tid:0;
  str_int b "\"sort_index\":" pid;
  Buffer.add_string b "}}";
  let j =
    {
      b;
      pid_tid = ",\"pid\":" ^ string_of_int pid ^ ",\"tid\":";
      tr;
      xfer;
      named = [||];
      stacks = [||];
      locks = { esc = [||]; of_id = Trace.lock_name };
      chans = { esc = [||]; of_id = Trace.chan_name };
    }
  in
  (* thread tracks: one per spawn (re-spawns across epochs reuse the
     tid's track), plus the setup track if anything ran outside a
     simulated thread, plus the counter track when used *)
  let r = Trace.ring tr in
  let uses_setup = ref false in
  Trace.iter_offsets tr (fun o ->
      match Trace.kind r.(o + 1) with
      | Thread ->
          let tid = r.(o + 2) in
          let t = track tid in
          if t >= Array.length j.named then j.named <- grow j.named t false;
          if not j.named.(t) then begin
            j.named.(t) <- true;
            meta_head b ~name:"thread_name" ~pid ~tid;
            str_int b "\"name\":\"tid " tid;
            str_int b " @ core " r.(o + 3);
            Buffer.add_string b "\"}}"
          end
      | Xfer -> if r.(o + 2) < 0 then uses_setup := true
      | _ -> ());
  if !uses_setup then
    meta b ~name:"thread_name" ~pid ~tid:setup_track ~value:"(setup)";
  if metrics <> None then
    meta b ~name:"thread_name" ~pid ~tid:counter_track ~value:"(metrics)";
  Trace.iter_offsets tr (event j r);
  match metrics with None -> () | Some m -> counters j m

(* [export_buffer b jobs] writes the merged trace of [(label, trace)]
   jobs, pid-ordered by their position in the list (= pool submission
   order).  [metrics] associates job labels with sampled metric
   accumulators to render as counter tracks; the first binding of a
   label wins. *)
let export_buffer ?(metrics : (string * Metrics.t) list = []) b
    (jobs : (string * Trace.t) list) =
  Buffer.add_string b "{\"traceEvents\":[";
  (* dummy first element so every real event can emit ",\n" uniformly *)
  Buffer.add_string b
    "{\"name\":\"trace\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"exporter\":\"ssync\",\"ts_unit\":\"cycles\"}}";
  let by_label = Hashtbl.create 64 in
  List.iter
    (fun (label, m) ->
      if not (Hashtbl.mem by_label label) then Hashtbl.add by_label label m)
    metrics;
  let xfer = Domain.DLS.get xfer_key in
  List.iteri
    (fun i (label, tr) ->
      export_job b ~xfer ~pid:(i + 1) ~label
        ?metrics:(Hashtbl.find_opt by_label label)
        tr)
    jobs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n"

let export_string ?metrics jobs =
  let b = Buffer.create 65536 in
  export_buffer ?metrics b jobs;
  Buffer.contents b

let export_file ?metrics path jobs =
  let oc = open_out path in
  let b = Buffer.create 65536 in
  export_buffer ?metrics b jobs;
  Buffer.output_buffer oc b;
  close_out oc
