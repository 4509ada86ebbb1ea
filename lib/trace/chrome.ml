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
   distance) in a table of one export call, each built the first time
   it is written. *)
let memop_ix : Arch.memop -> int = function
  | Load -> 0
  | Store -> 1
  | Cas -> 2
  | Fai -> 3
  | Tas -> 4
  | Swap -> 5

let n_memops = 6

let n_xfer_names =
  n_memops * Arch.n_cstates * Arch.n_cstates * Cost_model.n_ranks

let xfer_name xfer_names op pre post dist =
  let st = (Arch.cstate_index pre * Arch.n_cstates) + Arch.cstate_index post in
  let i =
    (((memop_ix op * Arch.n_cstates * Arch.n_cstates) + st)
     * Cost_model.n_ranks)
    + Cost_model.rank_of_class dist
  in
  let s = xfer_names.(i) in
  if String.length s > 0 then s
  else begin
    let s =
      W.escape
        (String.concat ""
           [
             Arch.memop_name op; " "; String.make 1 (Arch.cstate_letter pre);
             ">"; String.make 1 (Arch.cstate_letter post); " ";
             Arch.distance_name dist;
           ])
    in
    xfer_names.(i) <- s;
    s
  end

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

let event j ts (ev : Trace.event) =
  let b = j.b in
  match ev with
  | E_thread { tid; _ } ->
      instant j ~pfx:"" ~name:"spawn" ~ts ~tid:(track tid);
      Buffer.add_char b '}'
  | E_wait { tid; lock } ->
      let t = stack j tid in
      j.stacks.(t) <- Wait lock :: j.stacks.(t);
      head j ~pfx:"wait " ~name:(escaped j j.locks lock) ~ph:"B" ~ts ~tid:t;
      Buffer.add_char b '}'
  | E_acq { tid; lock; wait; dist } ->
      let t = stack j tid in
      (match j.stacks.(t) with
      | Wait l :: rest when l = lock ->
          j.stacks.(t) <- rest;
          close j ~pfx:"wait " ~name:(escaped j j.locks lock) ~ts ~tid:t
      | _ -> ());
      j.stacks.(t) <- Hold lock :: j.stacks.(t);
      head j ~pfx:"hold " ~name:(escaped j j.locks lock) ~ph:"B" ~ts ~tid:t;
      str_int b ",\"args\":{\"wait\":" wait;
      (match dist with
      | None -> ()
      | Some d ->
          Buffer.add_string b ",\"handoff\":\"";
          W.escaped b (Arch.distance_name d);
          Buffer.add_char b '"');
      Buffer.add_string b "}}"
  | E_rel { tid; lock; held } -> (
      let t = stack j tid in
      match j.stacks.(t) with
      | Hold l :: rest when l = lock ->
          j.stacks.(t) <- rest;
          close j ~pfx:"hold " ~name:(escaped j j.locks lock) ~ts ~tid:t
      | _ ->
          instant j ~pfx:"release " ~name:(escaped j j.locks lock) ~ts ~tid:t;
          str_int b ",\"args\":{\"held\":" held;
          Buffer.add_string b "}}")
  | E_xfer { tid; core; op; addr; pre; post; dist; lat; service; queued; rq; _ }
    ->
      head j ~pfx:"" ~name:(xfer_name j.xfer op pre post dist) ~ph:"X" ~ts
        ~tid:(track tid);
      str_int b ",\"dur\":" lat;
      str_int b ",\"args\":{\"addr\":" addr;
      str_int b ",\"core\":" core;
      str_int b ",\"service\":" service;
      str_int b ",\"queued\":" queued;
      str_int b ",\"rqueued\":" rq;
      Buffer.add_string b "}}"
  | E_park { tid; addr } ->
      let t = stack j tid in
      j.stacks.(t) <- Parked :: j.stacks.(t);
      head j ~pfx:"" ~name:"parked" ~ph:"B" ~ts ~tid:t;
      str_int b ",\"args\":{\"addr\":" addr;
      Buffer.add_string b "}}"
  | E_wake { tid; _ } -> (
      let t = stack j tid in
      match j.stacks.(t) with
      | Parked :: rest ->
          j.stacks.(t) <- rest;
          close j ~pfx:"" ~name:"parked" ~ts ~tid:t
      | _ ->
          instant j ~pfx:"" ~name:"wake" ~ts ~tid:t;
          Buffer.add_char b '}')
  | E_fault { tid; kind; cycles } ->
      let name =
        match kind with
        | Jitter -> "jitter"
        | Preempt -> "preempt"
        | Crash -> "crash"
      in
      instant j ~pfx:"" ~name ~ts ~tid:(track tid);
      str_int b ",\"args\":{\"cycles\":" cycles;
      Buffer.add_string b "}}"
  | E_send { tid; chan } | E_recv { tid; chan } ->
      let name = match ev with E_send _ -> "send" | _ -> "recv" in
      instant j ~pfx:"" ~name ~ts ~tid:(track tid);
      Buffer.add_string b ",\"args\":{\"chan\":\"";
      Buffer.add_string b (escaped j j.chans chan);
      Buffer.add_string b "\"}}"

(* Growable column of (kind, bucket, value) triples for the
   counter-track aggregation. *)
type col = { mutable a : int array; mutable n : int }

let push c k bk v =
  if c.n + 2 >= Array.length c.a then c.a <- grow c.a (c.n + 2) 0;
  c.a.(c.n) <- k;
  c.a.(c.n + 1) <- bk;
  c.a.(c.n + 2) <- v;
  c.n <- c.n + 3

(* Indices of [c]'s triples sorted by field [f], then field [g]. *)
let order c f g =
  let a = c.a in
  let ix = Array.init (c.n / 3) Fun.id in
  Array.stable_sort
    (fun x y ->
      let d = Int.compare a.((3 * x) + f) a.((3 * y) + f) in
      if d <> 0 then d else Int.compare a.((3 * x) + g) a.((3 * y) + g))
    ix;
  ix

(* Sampled metric timelines as Perfetto counter tracks: one counter
   per kind (ids aggregated), bucket-major so the shared tid's
   timestamps stay monotone; a zero sample after each run of activity
   stops the viewer's step function from holding the last value
   forever. *)
let counters j m =
  let s = { a = [||]; n = 0 } in
  Metrics.iter_sorted m (fun ~kind ~id:_ ~bucket v -> push s kind bucket v);
  (* sum ids out in (kind, bucket) order, closing each run of buckets
     with a zero *)
  let by_kind = order s 0 1 in
  let kind_at i = s.a.(3 * by_kind.(i))
  and bucket_at i = s.a.((3 * by_kind.(i)) + 1) in
  let o = { a = [||]; n = 0 } in
  let n = Array.length by_kind in
  let i = ref 0 in
  while !i < n do
    let k = kind_at !i and bk = bucket_at !i in
    let v = ref 0 in
    while !i < n && kind_at !i = k && bucket_at !i = bk do
      v := !v + s.a.((3 * by_kind.(!i)) + 2);
      incr i
    done;
    push o k bk !v;
    if not (!i < n && kind_at !i = k && bucket_at !i = bk + 1) then
      push o k (bk + 1) 0
  done;
  let w = Metrics.grid m in
  Array.iter
    (fun x ->
      let k = o.a.(3 * x) and bk = o.a.((3 * x) + 1) in
      head j ~pfx:""
        ~name:(W.escape (Metrics.kind_name k))
        ~ph:"C" ~ts:(bk * w) ~tid:counter_track;
      str_int j.b ",\"args\":{\"value\":" o.a.((3 * x) + 2);
      Buffer.add_string j.b "}}")
    (order o 1 0)

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
  (* thread tracks: one per E_thread (re-spawns across epochs reuse the
     tid's track), plus the setup track if anything ran outside a
     simulated thread, plus the counter track when used *)
  let uses_setup = ref false in
  Trace.iter tr (fun e ->
      match e.Trace.ev with
      | Trace.E_thread { tid; core } ->
          let t = track tid in
          if t >= Array.length j.named then j.named <- grow j.named t false;
          if not j.named.(t) then begin
            j.named.(t) <- true;
            meta_head b ~name:"thread_name" ~pid ~tid;
            str_int b "\"name\":\"tid " tid;
            str_int b " @ core " core;
            Buffer.add_string b "\"}}"
          end
      | Trace.E_xfer { tid; _ } -> if tid < 0 then uses_setup := true
      | _ -> ());
  if !uses_setup then
    meta b ~name:"thread_name" ~pid ~tid:setup_track ~value:"(setup)";
  if metrics <> None then
    meta b ~name:"thread_name" ~pid ~tid:counter_track ~value:"(metrics)";
  Trace.iter tr (fun { Trace.ts; ev } -> event j ts ev);
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
  let xfer = Array.make n_xfer_names "" in
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
