(* Property tests of the event queue (4-ary struct-of-arrays min-heap)
   against a reference model: a sorted association list keyed by
   (time, insertion seq).  The model is the contract the simulator
   depends on — global (time, seq) pop order, [next_time]/[pop_into]
   agreement, and [clear] resetting to a fresh queue. *)

open Ssync_engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The reference model: a list of (time, seq, id) kept sorted by
   (time, seq).  Insertion assigns seqs in program order, exactly like
   the queue. *)
module Model = struct
  type t = { mutable entries : (int * int * int) list; mutable seq : int }

  let create () = { entries = []; seq = 0 }

  let push m ~time id =
    let seq = m.seq in
    m.seq <- seq + 1;
    m.entries <-
      List.merge
        (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
        m.entries
        [ (time, seq, id) ]

  let next_time m =
    match m.entries with [] -> max_int | (t, _, _) :: _ -> t

  let pop m =
    match m.entries with
    | [] -> None
    | e :: rest ->
        m.entries <- rest;
        Some e
end

(* A script step: [Push dt] pushes at [last popped time + dt] (the dt
   spread mixes immediate completions with far-future schedules);
   [Pop] pops one event from both and compares. *)
type step = Push of int | Pop

let gen_script =
  QCheck.Gen.(
    list_size (int_range 0 600)
      (frequency
         [
           (3, map (fun dt -> Push dt) (int_range 0 5000));
           (2, return Pop);
         ]))

let arb_script =
  QCheck.make gen_script
    ~print:(fun s ->
      String.concat ";"
        (List.map
           (function Push dt -> Printf.sprintf "P%d" dt | Pop -> "pop")
           s))

let run_script script =
  let q = Event_queue.create () in
  let m = Model.create () in
  let p = Event_queue.make_popped () in
  let popped_q = ref [] in
  let popped_m = ref [] in
  let next_id = ref 0 in
  let last = ref 0 in
  let ok = ref true in
  List.iter
    (fun step ->
      match step with
      | Push dt ->
          let time = !last + dt in
          let id = !next_id in
          incr next_id;
          Event_queue.push q ~time (fun () -> popped_q := id :: !popped_q);
          Model.push m ~time id
      | Pop -> (
          if Event_queue.next_time q <> Model.next_time m then ok := false;
          let got = Event_queue.pop_into q p in
          match Model.pop m with
          | None -> if got then ok := false
          | Some (mt, _, mid) ->
              if not got then ok := false
              else begin
                if p.Event_queue.p_time <> mt then ok := false;
                p.Event_queue.p_run ();
                popped_m := mid :: !popped_m;
                last := mt
              end))
    script;
  (* drain both completely *)
  let rec drain () =
    let got = Event_queue.pop_into q p in
    match Model.pop m with
    | None -> if got then ok := false
    | Some (mt, _, mid) ->
        if (not got) || p.Event_queue.p_time <> mt then ok := false
        else begin
          p.Event_queue.p_run ();
          popped_m := mid :: !popped_m;
          drain ()
        end
  in
  drain ();
  if Event_queue.length q <> 0 then ok := false;
  !ok && !popped_q = !popped_m

let qcheck_vs_model =
  QCheck.Test.make ~count:400
    ~name:"event queue = sorted-list model (order, ties, next_time)"
    arb_script run_script

(* Same-time pushes must pop in insertion order: a long run of
   identical timestamps stresses the tie-break through several heap
   growth steps. *)
let test_tie_order () =
  let q = Event_queue.create () in
  let order = ref [] in
  let n = 400 in
  for i = 0 to n - 1 do
    Event_queue.push q ~time:7 (fun () -> order := i :: !order)
  done;
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some e ->
        e.Event_queue.run ();
        drain ()
  in
  drain ();
  check_bool "fifo among ties" true
    (!order = List.rev (List.init n (fun i -> i)))

(* Events scheduled behind the last popped time must still pop first:
   the queue orders by time alone, not relative to what it has already
   handed out. *)
let test_regressing_push () =
  let q = Event_queue.create () in
  let p = Event_queue.make_popped () in
  Event_queue.push q ~time:5000 ignore;
  ignore (Event_queue.pop_into q p);
  check_int "advanced" 5000 p.Event_queue.p_time;
  Event_queue.push q ~time:100 ignore;
  Event_queue.push q ~time:6000 ignore;
  check_int "regressed event is next" 100 (Event_queue.next_time q);
  ignore (Event_queue.pop_into q p);
  check_int "popped the early one" 100 p.Event_queue.p_time

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_vs_model;
    Alcotest.test_case "same-time FIFO order" `Quick test_tie_order;
    Alcotest.test_case "push behind the base pops first" `Quick
      test_regressing_push;
  ]
