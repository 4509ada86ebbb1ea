(* Property tests of the event queue (a 4-ary min-heap of int keys
   over a closure slot table) against reference models: sorted lists
   keyed by (time, insertion seq), and for an ordered queue by (time,
   [precedes]).  The models are the contract the simulator depends on:
   the global pop order, [push_pop_into] acting as a push then a pop,
   an ordered queue's [remove] by node, and [next_time] agreeing with
   the model's head.  The key's limits are checked too: a seq counter
   that wraps keeps same-time order, and a time past [max_time]
   raises. *)

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
   spread mixes same-time events, immediate completions and far-future
   schedules); [Pop] pops one event from both and compares;
   [Push_pop dt] pushes at [last + dt] and pops in one call on the
   queue, and as a push then a pop on the model. *)
type step = Push of int | Pop | Push_pop of int

let gen_dt =
  QCheck.Gen.(
    frequency [ (2, return 0); (2, int_range 0 3); (3, int_range 0 5000) ])

let gen_script =
  QCheck.Gen.(
    list_size (int_range 0 600)
      (frequency
         [
           (3, map (fun dt -> Push dt) gen_dt);
           (2, return Pop);
           (2, map (fun dt -> Push_pop dt) gen_dt);
         ]))

let arb_script =
  QCheck.make gen_script
    ~print:(fun s ->
      String.concat ";"
        (List.map
           (function
             | Push dt -> Printf.sprintf "P%d" dt
             | Pop -> "pop"
             | Push_pop dt -> Printf.sprintf "PP%d" dt)
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
  let event dt =
    let time = !last + dt and id = !next_id in
    incr next_id;
    Model.push m ~time id;
    (time, fun () -> popped_q := id :: !popped_q)
  in
  List.iter
    (fun step ->
      match step with
      | Push dt ->
          let time, run = event dt in
          Event_queue.push q ~time run
      | Push_pop dt -> (
          let time, run = event dt in
          Event_queue.push_pop_into q ~time run p;
          match Model.pop m with
          | None -> ok := false
          | Some (mt, _, mid) ->
              if p.Event_queue.p_time <> mt then ok := false;
              p.Event_queue.p_run ();
              popped_m := mid :: !popped_m;
              last := mt;
              if Event_queue.next_time q <> Model.next_time m then ok := false)
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

(* The seq counter wraps after [seq_mask + 1] pushes, and [relabel]
   renumbers the queued events in order.  Sixteen events stay queued
   while [push_pop_into] and push-then-pop steps cycle them through the
   wrap twice at times [t, t+2]: every step ties with queued events,
   and each pop must match the model, whose seqs never wrap. *)
let test_seq_wrap () =
  let q = Event_queue.create () and p = Event_queue.make_popped () in
  let m = Model.create () in
  let ran = ref (-1) in
  let push ~time id =
    Event_queue.push q ~time (fun () -> ran := id);
    Model.push m ~time id
  in
  for id = 0 to 15 do
    push ~time:(id / 4) id
  done;
  let steps = (2 * (Event_queue.seq_mask + 1)) + 1_000 in
  let bad = ref 0 and last = ref 0 in
  for id = 16 to steps + 15 do
    let time = !last + (id mod 3) in
    let run () = ran := id in
    if id land 1 = 0 then Event_queue.push_pop_into q ~time run p
    else begin
      Event_queue.push q ~time run;
      ignore (Event_queue.pop_into q p)
    end;
    Model.push m ~time id;
    (match Model.pop m with
    | Some (mt, _, mid) ->
        p.Event_queue.p_run ();
        if p.Event_queue.p_time <> mt || !ran <> mid then incr bad;
        last := mt
    | None -> incr bad);
    if Event_queue.next_time q <> Model.next_time m then incr bad
  done;
  check_int "pops unlike the model" 0 !bad;
  check_bool "the counter was renumbered" true
    (q.Event_queue.next_seq <= Event_queue.seq_mask);
  check_int "still queued" 16 (Event_queue.length q)

(* Times run from 0 to [max_time]; a push outside that range raises,
   on every push path, and leaves the queue as it was. *)
let test_time_bound () =
  let q = Event_queue.create () and p = Event_queue.make_popped () in
  let top = Event_queue.max_time in
  let raises name f =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Event_queue.%s: time outside [0, max_time]" name))
      f
  in
  raises "push" (fun () -> Event_queue.push q ~time:(top + 1) ignore);
  raises "push" (fun () -> Event_queue.push q ~time:(-1) ignore);
  raises "push" (fun () -> Event_queue.push q ~time:max_int ignore);
  raises "push_pop_into" (fun () ->
      Event_queue.push_pop_into q ~time:(top + 1) ignore p);
  let o = Event_queue.create ~ordered:true () in
  raises "push_node" (fun () ->
      Event_queue.push_node o (Event_queue.child o ~time:(top + 1)) ignore);
  check_int "nothing queued" 0 (Event_queue.length q + Event_queue.length o);
  Event_queue.push q ~time:top ignore;
  Event_queue.push q ~time:0 ignore;
  Event_queue.push_pop_into q ~time:top ignore p;
  check_int "the earlier pops" 0 p.Event_queue.p_time;
  check_int "next is the bound" top (Event_queue.next_time q);
  ignore (Event_queue.pop_into q p);
  check_int "popped at the bound" top p.Event_queue.p_time;
  check_int "one left" 1 (Event_queue.length q)

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
  let p = Event_queue.make_popped () in
  while Event_queue.pop_into q p do
    p.Event_queue.p_run ()
  done;
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

(* An ordered queue against a sorted list of (time, node, id) kept in
   (time, [precedes]) order.  Each step pushes a [child] of the node
   that ran last at a time just after it (same-time pushes from several
   pushers are common), pops one event and marks its node run with
   [ran], or removes a queued event picked by index (an index past the
   end removes an already popped node, a no-op).  A fill of 80 pushes
   first grows the arrays past their initial capacity. *)
type ostep = O_push of int | O_pop | O_remove of int

let gen_ordered =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (frequency
         [
           (3, map (fun dt -> O_push dt) (int_range 0 3));
           (2, return O_pop);
           (1, map (fun k -> O_remove k) (int_range 0 120));
         ]))

let arb_ordered =
  QCheck.make gen_ordered ~print:(fun s ->
      String.concat ";"
        (List.map
           (function
             | O_push dt -> Printf.sprintf "P%d" dt
             | O_pop -> "pop"
             | O_remove k -> Printf.sprintf "R%d" k)
           s))

let run_ordered script =
  let q = Event_queue.create ~ordered:true () in
  let p = Event_queue.make_popped () in
  let model = ref [] and popped = ref [] in
  let ran = ref None and rank = ref 0 and now = ref 0 and next_id = ref 0 in
  let ok = ref true in
  let check_head () =
    let head = match !model with [] -> max_int | (t, _, _) :: _ -> t in
    if Event_queue.next_time q <> head then ok := false
  in
  let push dt =
    let time = !now + dt and id = !next_id in
    incr next_id;
    let n = Event_queue.child q ~time in
    Event_queue.push_node q n (fun () -> ran := Some id);
    let rec insert = function
      | ((t, m, _) as e) :: rest
        when t < time || (t = time && Event_queue.precedes m n) ->
          e :: insert rest
      | rest -> (time, n, id) :: rest
    in
    model := insert !model
  in
  let pop () =
    let got = Event_queue.pop_into q p in
    match !model with
    | [] -> if got then ok := false
    | (t, n, id) :: rest ->
        model := rest;
        ran := None;
        if got then p.Event_queue.p_run ();
        if (not got) || p.Event_queue.p_time <> t
           || p.Event_queue.p_node != n || !ran <> Some id
        then ok := false
        else begin
          incr rank;
          Event_queue.ran q n ~rank:!rank;
          now := t;
          popped := n :: !popped
        end
  in
  let remove k =
    let queued = List.length !model in
    if k < queued then begin
      let _, n, _ = List.nth !model k in
      Event_queue.remove q n;
      model := List.filter (fun (_, m, _) -> m != n) !model
    end
    else
      match !popped with
      | n :: _ -> Event_queue.remove q n
      | [] -> ()
  in
  for _ = 1 to 80 do
    push 0;
    check_head ()
  done;
  List.iter
    (fun step ->
      (match step with
      | O_push dt -> push dt
      | O_pop -> pop ()
      | O_remove k -> remove k);
      check_head ())
    script;
  List.iter
    (fun _ ->
      pop ();
      check_head ())
    !model;
  !ok && Event_queue.length q = 0
  && not (Event_queue.pop_into q p)

let qcheck_ordered_vs_model =
  QCheck.Test.make ~count:300
    ~name:"ordered queue = (time, precedes) model (child, ran, remove)"
    arb_ordered run_ordered

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_vs_model;
    QCheck_alcotest.to_alcotest qcheck_ordered_vs_model;
    Alcotest.test_case "same-time FIFO order" `Quick test_tie_order;
    Alcotest.test_case "push behind the base pops first" `Quick
      test_regressing_push;
    Alcotest.test_case "seq counter wraps in order" `Quick test_seq_wrap;
    Alcotest.test_case "times past max_time raise" `Quick test_time_bound;
  ]
