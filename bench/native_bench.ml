(* Bechamel microbenchmarks of the *native* lock library: uncontended
   acquire+release per algorithm, native channel send/recv, an ssht
   operation and a TM transaction.  These measure the OCaml
   implementations on the host CPU (single-core; scaling numbers come
   from the simulator sections). *)

open Bechamel
open Toolkit

let lock_tests () =
  List.map
    (fun algo ->
      let lock = Ssync_locks.Libslock.create ~max_threads:2 algo in
      Test.make
        ~name:(Ssync_locks.Libslock.name algo)
        (Staged.stage (fun () ->
             lock.Ssync_locks.Lock.acquire ();
             lock.Ssync_locks.Lock.release ())))
    Ssync_locks.Libslock.all

let channel_test () =
  let ch = Ssync_mp.Channel.create () in
  Test.make ~name:"channel send+recv"
    (Staged.stage (fun () ->
         Ssync_mp.Channel.send ch 42;
         ignore (Ssync_mp.Channel.recv ch)))

let ssht_test () =
  let t = Ssync_ssht.Ssht.create ~n_buckets:64 () in
  for i = 0 to 99 do
    ignore (Ssync_ssht.Ssht.put t i i)
  done;
  let k = ref 0 in
  Test.make ~name:"ssht get+put"
    (Staged.stage (fun () ->
         k := (!k + 17) mod 100;
         ignore (Ssync_ssht.Ssht.get t !k);
         ignore (Ssync_ssht.Ssht.put t !k !k)))

let tm_test () =
  let tm = Ssync_tm.Tm.create ~size:16 in
  let i = ref 0 in
  Test.make ~name:"tm transfer txn"
    (Staged.stage (fun () ->
         i := (!i + 1) mod 15;
         let a = !i and b = !i + 1 in
         Ssync_tm.Tm.atomically tm (fun tx ->
             let va = Ssync_tm.Tm.read tx a and vb = Ssync_tm.Tm.read tx b in
             Ssync_tm.Tm.write tx a (va - 1);
             Ssync_tm.Tm.write tx b (vb + 1))))

(* Quick mode samples each test for a fifth of the full quota: no check
   reads these host timings, so a shorter estimate costs nothing. *)
let benchmark ~quick =
  let test =
    Test.make_grouped ~name:"native"
      ([ channel_test (); ssht_test (); tm_test () ] @ lock_tests ())
  in
  let instances = Instance.[ monotonic_clock ] in
  let quota = Time.second (if quick then 0.05 else 0.25) in
  let cfg = Benchmark.cfg ~limit:500 ~quota ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  results

(* Render-only section: Bechamel measures host wall-clock, which is
   nondeterministic by nature, so this section runs serially on the
   main domain and is excluded from the byte-identity guarantee the
   simulator sections carry.  Bechamel stabilizes the GC before every
   test, so its first stabilization would sweep whatever the job phase
   left: the section is host-timed, and the driver collects first. *)
let run ~quick =
  Section.host_timed @@ fun () ->
  Printf.printf
    "\n==== Native microbenchmarks (Bechamel, uncontended, host CPU) ====\n%!";
  let results = benchmark ~quick in
  Printf.printf "%-28s %14s\n" "benchmark" "ns/op";
  Printf.printf "%s\n" (String.make 44 '-');
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-28s %14.1f\n" name est
      | _ -> Printf.printf "%-28s %14s\n" name "-")
    results
