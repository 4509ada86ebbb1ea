(* Differential test of the [--trace]/[--metrics] exporters: on random
   traces and metric sinks, [Chrome.export_string] and
   [Metrics.dump_json]/[dump_csv] must write exactly the bytes the
   Printf-based reference in ref_export.ml writes.

   The traces are built through the public producer API: small ring
   capacities force wrap-around (so closes lose their opening events),
   all ten event kinds appear, thread ids include -1, lock and channel
   ids include unregistered ones, and the int payloads include zero,
   negative, large and extreme values.  Names mix JSON's special
   characters with control bytes and UTF-8. *)

open Ssync_platform
module Trace = Ssync_trace.Trace
module Chrome = Ssync_trace.Chrome
module Metrics = Ssync_metrics.Metrics

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 0 5000);
        (2, int_range (-5) 5);
        (1, int_range 1_000_000_000 (1 lsl 40));
        (1, oneofl [ 0; -1; max_int; min_int; max_int - 1 ]);
        (1, int);
      ])

let gen_name =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 6)
         (oneofl
            [ "a"; "Z"; "MCS"; " "; "/"; "\""; "\\"; "\n"; "\001"; "\031";
              "\127"; "\xc3\xa9"; "lock#0" ])))

let gen_memop = QCheck.Gen.oneofl Arch.[ Load; Store; Cas; Fai; Tas; Swap ]

let gen_cstate = QCheck.Gen.oneofa Arch.cstate_of_index

let gen_dist =
  QCheck.Gen.oneofl
    Arch.[ Same_core; Same_die; Same_mcm; One_hop; Two_hops; Max_hops ]

(* Few threads and locks, so waits, acquires and releases often pair
   up into slices. *)
let gen_event =
  let open QCheck.Gen in
  let tid = int_range (-1) 3 and id = int_range (-1) 3 in
  frequency
    [
      (1, map2 (fun tid core -> Trace.E_thread { tid; core }) tid gen_int);
      (3, map2 (fun tid lock -> Trace.E_wait { tid; lock }) tid id);
      ( 3,
        map4
          (fun tid lock wait dist -> Trace.E_acq { tid; lock; wait; dist })
          tid id gen_int (opt gen_dist) );
      ( 3,
        map3
          (fun tid lock held -> Trace.E_rel { tid; lock; held })
          tid id gen_int );
      ( 3,
        map4
          (fun (tid, core, addr) (op, pre, post) dist
               (lat, service, queued, rq) ->
            Trace.E_xfer
              {
                tid; core; op; addr; pre; post; dist; lat; service; queued; rq;
                rq_dir = rq land 1 = 0;
              })
          (triple tid gen_int gen_int)
          (triple gen_memop gen_cstate gen_cstate)
          gen_dist
          (quad gen_int gen_int gen_int gen_int) );
      (2, map2 (fun tid addr -> Trace.E_park { tid; addr }) tid gen_int);
      (2, map2 (fun tid addr -> Trace.E_wake { tid; addr }) tid gen_int);
      ( 1,
        map3
          (fun tid kind cycles -> Trace.E_fault { tid; kind; cycles })
          tid
          (oneofl Trace.[ Jitter; Preempt; Crash ])
          gen_int );
      (1, map2 (fun tid chan -> Trace.E_send { tid; chan }) tid id);
      (1, map2 (fun tid chan -> Trace.E_recv { tid; chan }) tid id);
    ]

type job = {
  label : string;
  capacity : int;
  locks : string list;
  chans : string list;
  events : (int * Trace.event) list;
  epoch_at : int;  (* emit index before which [Trace.new_epoch] runs *)
}

let gen_job =
  QCheck.Gen.(
    map
      (fun ((label, capacity), (locks, chans), (events, epoch_at)) ->
        { label; capacity; locks; chans; events; epoch_at })
      (triple
         (pair gen_name (oneof [ int_range 1 12; return 4096 ]))
         (pair (list_size (int_range 0 3) gen_name)
            (list_size (int_range 0 3) gen_name))
         (pair (list_size (int_range 0 80) (pair gen_int gen_event))
            (int_range 0 80))))

let build j =
  let tr = Trace.create ~capacity:j.capacity () in
  List.iter (fun n -> ignore (Trace.new_lock tr n)) j.locks;
  List.iter (fun n -> ignore (Trace.new_chan tr n)) j.chans;
  List.iteri
    (fun i (ts, ev) ->
      if i = j.epoch_at then Trace.new_epoch tr;
      Trace.emit tr ~ts ev)
    j.events;
  tr

(* A metric sink filled by short spans and bumps, so no span walks an
   unbounded number of buckets; kinds include two past [n_kinds]. *)
type sample =
  | Span of int * int * int * int * int
  | Bump of int * int * int * int

let gen_sample =
  QCheck.Gen.(
    let kind = int_range 0 (Metrics.n_kinds + 1) and id = int_range (-1) 4 in
    let ts = int_range (-100) 1_000_000 in
    oneof
      [
        map2
          (fun (k, i, t0) (len, w) -> Span (k, i, t0, t0 + len, w))
          (triple kind id ts)
          (pair (int_range (-10) 300_000) (int_range (-3) 8));
        map2 (fun (k, i, ts) n -> Bump (k, i, ts, n)) (triple kind id ts)
          (int_range (-2) 5);
      ])

let fill samples =
  let m = Metrics.create () in
  List.iter
    (function
      | Span (kind, id, t0, t1, weight) ->
          Metrics.span m ~kind ~id ~t0 ~t1 ~weight
      | Bump (kind, id, ts, n) -> Metrics.bump m ~kind ~id ~ts n)
    samples;
  m

(* jobs, then per job an optional sink; [dup] re-binds the first
   label to another sink, which must lose to the first binding *)
let gen_case =
  QCheck.Gen.(
    triple
      (list_size (int_range 1 3) gen_job)
      (list_size (int_range 1 3)
         (opt (list_size (int_range 0 40) gen_sample)))
      bool)

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let around s =
    let lo = max 0 (i - 60) in
    String.sub s lo (min (String.length s - lo) 120)
  in
  Printf.sprintf "first difference at byte %d:\nnew: %S\nref: %S" i (around a)
    (around b)

let check_same what got want =
  if got <> want then
    QCheck.Test.fail_reportf "%s: %s" what (first_diff got want)

let prop (jobs, sinks, dup) =
  let jobs = List.map (fun j -> (j.label, build j)) jobs in
  let metrics =
    List.concat
      (List.mapi
         (fun i s ->
           match (List.nth_opt jobs i, s) with
           | Some (label, _), Some samples -> [ (label, fill samples) ]
           | _ -> [])
         sinks)
  in
  let metrics =
    match (dup, jobs) with
    | true, (label, _) :: _ -> metrics @ [ (label, fill [ Bump (0, 0, 0, 7) ]) ]
    | _ -> metrics
  in
  let want = Buffer.create 4096 in
  Ref_export.export_buffer ~metrics want jobs;
  check_same "chrome export"
    (Chrome.export_string ~metrics jobs)
    (Buffer.contents want);
  List.iter
    (fun (what, dump, ref_dump) ->
      let got = Buffer.create 4096 and want = Buffer.create 4096 in
      dump got metrics;
      ref_dump want metrics;
      check_same what (Buffer.contents got) (Buffer.contents want))
    [
      ("metrics json", Metrics.dump_json, Ref_export.dump_json);
      ("metrics csv", Metrics.dump_csv, Ref_export.dump_csv);
    ];
  true

let qcheck_exporters_match_reference =
  QCheck.Test.make ~count:300
    ~name:"exporters = Printf reference, byte for byte"
    (QCheck.make gen_case) prop

(* Digit boundaries, where a hand-written [int] breaks first. *)
let test_int_digits () =
  let module W = Metrics.Writer in
  let pows = List.init 19 (fun k -> int_of_float (10. ** float_of_int k)) in
  let around p = [ p - 1; p; p + 1; -p + 1; -p; -p - 1 ] in
  List.iter
    (fun n ->
      let b = Buffer.create 24 in
      W.int b n;
      Alcotest.(check string)
        (string_of_int n) (string_of_int n) (Buffer.contents b))
    ([ 0; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.concat_map around pows)

(* Transfer names are cached once per domain and reused by later
   exports: a trace naming every (op, pre, post, distance) exports to
   the same bytes twice in one domain, in a fresh domain, and in the
   Printf reference. *)
let test_name_cache_per_domain () =
  let tr = Trace.create ~capacity:4096 () in
  let ts = ref 0 in
  Array.iter
    (fun op ->
      Array.iter
        (fun pre ->
          Array.iter
            (fun post ->
              Array.iter
                (fun dist ->
                  incr ts;
                  Trace.emit tr ~ts:!ts
                    (Trace.E_xfer
                       {
                         tid = !ts land 3 - 1; core = 0; op; addr = !ts; pre;
                         post; dist; lat = 7; service = 5; queued = 1; rq = 0;
                         rq_dir = true;
                       }))
                Cost_model.class_of_rank)
            Arch.cstate_of_index)
        Arch.cstate_of_index)
    Arch.[| Load; Store; Cas; Fai; Tas; Swap |];
  let jobs = [ ("xfer", tr) ] in
  let export () = Chrome.export_string jobs in
  let first = export () in
  let want = Buffer.create 65536 in
  Ref_export.export_buffer ~metrics:[] want jobs;
  Alcotest.(check string) "first export" (Buffer.contents want) first;
  Alcotest.(check string) "second export, same domain" first (export ());
  Alcotest.(check string)
    "fresh domain" first
    (Domain.join (Domain.spawn export))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_exporters_match_reference;
    Alcotest.test_case "Writer.int = string_of_int" `Quick test_int_digits;
    Alcotest.test_case "transfer names cached per domain" `Quick
      test_name_cache_per_domain;
  ]
