(* Reference exporters for the differential test in test_export.ml:
   the Printf-based Chrome exporter and metrics dumps the library
   shipped before its exporters moved to [Metrics.Writer], kept
   verbatim except for the JSON-escaping fix: channel names, the
   handoff argument, the metrics job label and kind names are escaped
   with [add_escaped] (\u00XX for control bytes) instead of being
   written raw or with OCaml's [%S].  Only test code uses this
   module. *)

open Ssync_platform
module Metrics = Ssync_metrics.Metrics
module Trace = Ssync_trace.Trace
module V = Trace_view

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create 16 in
  add_escaped b s;
  Buffer.contents b

(* Track id for events issued outside any simulated thread (memory
   setup, ccbench drivers). *)
let setup_track = 9999

(* Dedicated track for sampled metric counters (engine-global, not
   per thread). *)
let counter_track = 9998
let track tid = if tid < 0 then setup_track else tid

(* What a track currently has open, innermost first. *)
type slice = Wait of int | Hold of int | Parked

let obj b ~name ~ph ~ts ~pid ~tid rest =
  Buffer.add_string b ",\n{\"name\":\"";
  add_escaped b name;
  Buffer.add_string b
    (Printf.sprintf "\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":%d%s}" ph ts
       pid tid rest)

let meta b ~name ~pid ~tid ~value =
  Buffer.add_string b
    (Printf.sprintf ",\n{\"name\":\"%s\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"" name pid tid);
  add_escaped b value;
  Buffer.add_string b "\"}}"

let dist_arg d = Arch.distance_name d

let export_job b ~pid ~label ?metrics (tr : Trace.t) =
  meta b ~name:"process_name" ~pid ~tid:0 ~value:label;
  Buffer.add_string b
    (Printf.sprintf
       ",\n{\"name\":\"process_sort_index\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":0,\"args\":{\"sort_index\":%d}}"
       pid pid);
  (* thread tracks: one per E_thread (re-spawns across epochs reuse the
     tid's track), plus the setup track if anything ran outside a
     simulated thread, plus the counter track when used *)
  let named = Hashtbl.create 32 in
  let uses_setup = ref false in
  V.iter tr (fun e ->
      match e.V.ev with
      | V.E_thread { tid; core } ->
          if not (Hashtbl.mem named tid) then begin
            Hashtbl.replace named tid ();
            meta b ~name:"thread_name" ~pid ~tid
              ~value:(Printf.sprintf "tid %d @ core %d" tid core)
          end
      | V.E_xfer { tid; _ } -> if tid < 0 then uses_setup := true
      | _ -> ());
  if !uses_setup then
    meta b ~name:"thread_name" ~pid ~tid:setup_track ~value:"(setup)";
  if metrics <> None then
    meta b ~name:"thread_name" ~pid ~tid:counter_track ~value:"(metrics)";
  let stacks : (int, slice list ref) Hashtbl.t = Hashtbl.create 32 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks tid s;
        s
  in
  let close b ~ts ~tid name = obj b ~name ~ph:"E" ~ts ~pid ~tid "" in
  V.iter tr (fun { V.ts; ev } ->
      match ev with
      | V.E_thread { tid; _ } ->
          obj b ~name:"spawn" ~ph:"i" ~ts ~pid ~tid:(track tid) ",\"s\":\"t\""
      | V.E_wait { tid; lock } ->
          let s = stack tid in
          s := Wait lock :: !s;
          obj b
            ~name:("wait " ^ Trace.lock_name tr lock)
            ~ph:"B" ~ts ~pid ~tid:(track tid) ""
      | V.E_acq { tid; lock; wait; dist } ->
          let s = stack tid in
          (match !s with
          | Wait l :: rest when l = lock ->
              s := rest;
              close b ~ts ~tid:(track tid) ("wait " ^ Trace.lock_name tr lock)
          | _ -> ());
          s := Hold lock :: !s;
          let args =
            match dist with
            | None -> Printf.sprintf ",\"args\":{\"wait\":%d}" wait
            | Some d ->
                Printf.sprintf ",\"args\":{\"wait\":%d,\"handoff\":\"%s\"}"
                  wait (escape (dist_arg d))
          in
          obj b
            ~name:("hold " ^ Trace.lock_name tr lock)
            ~ph:"B" ~ts ~pid ~tid:(track tid) args
      | V.E_rel { tid; lock; held } ->
          let s = stack tid in
          (match !s with
          | Hold l :: rest when l = lock ->
              s := rest;
              close b ~ts ~tid:(track tid) ("hold " ^ Trace.lock_name tr lock)
          | _ ->
              obj b
                ~name:("release " ^ Trace.lock_name tr lock)
                ~ph:"i" ~ts ~pid ~tid:(track tid)
                (Printf.sprintf ",\"s\":\"t\",\"args\":{\"held\":%d}" held))
      | V.E_xfer
          { tid; core; op; addr; pre; post; dist; lat; service; queued; rq; _ }
        ->
          let name =
            Printf.sprintf "%s %c>%c %s" (Arch.memop_name op)
              (Arch.cstate_letter pre) (Arch.cstate_letter post) (dist_arg dist)
          in
          obj b ~name ~ph:"X" ~ts ~pid ~tid:(track tid)
            (Printf.sprintf
               ",\"dur\":%d,\"args\":{\"addr\":%d,\"core\":%d,\"service\":%d,\"queued\":%d,\"rqueued\":%d}"
               lat addr core service queued rq)
      | V.E_park { tid; addr } ->
          let s = stack tid in
          s := Parked :: !s;
          obj b ~name:"parked" ~ph:"B" ~ts ~pid ~tid:(track tid)
            (Printf.sprintf ",\"args\":{\"addr\":%d}" addr)
      | V.E_wake { tid; _ } ->
          let s = stack tid in
          (match !s with
          | Parked :: rest ->
              s := rest;
              close b ~ts ~tid:(track tid) "parked"
          | _ ->
              obj b ~name:"wake" ~ph:"i" ~ts ~pid ~tid:(track tid)
                ",\"s\":\"t\"")
      | V.E_fault { tid; kind; cycles } ->
          let name =
            match kind with
            | Trace.Jitter -> "jitter"
            | Trace.Preempt -> "preempt"
            | Trace.Crash -> "crash"
          in
          obj b ~name ~ph:"i" ~ts ~pid ~tid:(track tid)
            (Printf.sprintf ",\"s\":\"t\",\"args\":{\"cycles\":%d}" cycles)
      | V.E_send { tid; chan } ->
          obj b ~name:"send" ~ph:"i" ~ts ~pid ~tid:(track tid)
            (Printf.sprintf ",\"s\":\"t\",\"args\":{\"chan\":\"%s\"}"
               (escape (Trace.chan_name tr chan)))
      | V.E_recv { tid; chan } ->
          obj b ~name:"recv" ~ph:"i" ~ts ~pid ~tid:(track tid)
            (Printf.sprintf ",\"s\":\"t\",\"args\":{\"chan\":\"%s\"}"
               (escape (Trace.chan_name tr chan))));
  (* Sampled metric timelines as Perfetto counter tracks: one counter
     per kind (ids aggregated), bucket-major so the shared tid's
     timestamps stay monotone; a zero sample after each run of activity
     stops the viewer's step function from holding the last value
     forever. *)
  match metrics with
  | None -> ()
  | Some m ->
      let w = Metrics.grid m in
      let samples = ref [] in
      Metrics.iter_sorted m (fun ~kind ~id:_ ~bucket v ->
          samples := (kind, bucket, v) :: !samples);
      (* aggregate ids: iter_sorted visits (kind, id, bucket) sorted, so
         equal (kind, bucket) pairs are not adjacent; fold via a table *)
      let agg = Hashtbl.create 256 in
      List.iter
        (fun (k, bk, v) ->
          let key = (k, bk) in
          match Hashtbl.find_opt agg key with
          | Some r -> r := !r + v
          | None -> Hashtbl.add agg key (ref v))
        !samples;
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) agg [] in
      (* zero terminators where the next bucket of a kind is absent *)
      let zeros =
        List.filter_map
          (fun (k, bk) ->
            if Hashtbl.mem agg (k, bk + 1) then None else Some (k, bk + 1))
          keys
      in
      List.iter (fun key -> Hashtbl.replace agg key (ref 0)) zeros;
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) agg [] in
      let keys = List.sort (fun (k1, b1) (k2, b2) -> compare (b1, k1) (b2, k2)) keys in
      List.iter
        (fun ((k, bk) as key) ->
          obj b ~name:(Metrics.kind_name k) ~ph:"C" ~ts:(bk * w) ~pid
            ~tid:counter_track
            (Printf.sprintf ",\"args\":{\"value\":%d}" !(Hashtbl.find agg key)))
        keys

(* [export_buffer b jobs] writes the merged trace of [(label, trace)]
   jobs, pid-ordered by their position in the list (= pool submission
   order).  [metrics] associates job labels with sampled metric
   accumulators to render as counter tracks. *)
let export_buffer ?(metrics : (string * Metrics.t) list = []) b
    (jobs : (string * Trace.t) list) =
  Buffer.add_string b "{\"traceEvents\":[";
  (* dummy first element so every real event can emit ",\n" uniformly *)
  Buffer.add_string b
    "{\"name\":\"trace\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"exporter\":\"ssync\",\"ts_unit\":\"cycles\"}}";
  List.iteri
    (fun i (label, tr) ->
      export_job b ~pid:(i + 1) ~label ?metrics:(List.assoc_opt label metrics)
        tr)
    jobs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n"

(* ----------------------------- metrics ----------------------------- *)

(* The jobs' common grid; the default when there is none. *)
let grid_of = function [] -> 65536 | (_, m) :: _ -> Metrics.grid m

let dump_csv buf jobs =
  Buffer.add_string buf
    (Printf.sprintf "# ssync metrics v1 bucket_cycles=%d\n" (grid_of jobs));
  List.iter
    (fun (label, t) ->
      Buffer.add_string buf (Printf.sprintf "# job %s\n" label);
      Metrics.iter_sorted t (fun ~kind ~id ~bucket v ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%d,%d\n" (Metrics.kind_name kind) id bucket v)))
    jobs

let dump_json buf jobs =
  Buffer.add_string buf
    (Printf.sprintf "{\"bucket_cycles\": %d, \"jobs\": [" (grid_of jobs));
  List.iteri
    (fun j (label, t) ->
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n{\"label\": \"%s\", \"samples\": [" (escape label));
      let first = ref true in
      Metrics.iter_sorted t (fun ~kind ~id ~bucket v ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf
            (Printf.sprintf "\n[\"%s\", %d, %d, %d]"
               (escape (Metrics.kind_name kind)) id bucket v));
      Buffer.add_string buf "]}")
    jobs;
  Buffer.add_string buf "]}\n"
