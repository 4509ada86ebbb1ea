(* Host pace: a short fixed computation timed between jobs, so that wall
   times can be rescaled to a host of constant speed.

   The reference host shares its cores with other tenants, and its speed
   drifts by tens of percent over minutes: the same code at the same
   seeds ran ssht's pass in 11 s in one set of runs and 16 s in the next.
   No statistic over one run removes that.  [kernel] shares no code with
   the simulator and allocates nothing, so neither the simulator's heap
   nor its garbage collector reaches it, and it warms its small table
   before timing, so the job just run leaves it no cold misses.  What it
   does feel is the host's speed: over 24 passes per workload its time
   correlated with the pass times at 0.90-0.97, and rescaling cut the
   interquartile range of pass times from 11-15% to 4% of the median. *)

(* The kernel's median time on the reference host (a 2-vCPU Xeon VM). *)
let nominal_s = 1.2e-4

let table = Array.make 4096 0
let steps =
  [| (fun x -> x + 1); (fun x -> x lxor 5); (fun x -> x * 3); (fun x -> x lsr 1) |]

(* Seconds one run of the kernel takes: random table updates through
   data-dependent indirect calls. *)
let kernel () =
  for i = 0 to Array.length table - 1 do
    ignore (Sys.opaque_identity table.(i))
  done;
  let t0 = Unix.gettimeofday () in
  let x = ref 12345 in
  for i = 1 to 40_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = (!x lsr 7) land 4095 in
    table.(k) <- (Sys.opaque_identity steps).(!x land 3) (table.(k) + i)
  done;
  Unix.gettimeofday () -. t0

(* [rescale walls paces]: wall time [j] at the nominal pace, judged by
   the median kernel time of the 21 samples around [j] ([paces.(j)] is
   the kernel run right after sample [j]). *)
let rescale walls paces =
  let n = Array.length walls in
  Array.mapi
    (fun j w ->
      let lo = max 0 (j - 10) and hi = min n (j + 11) in
      w *. nominal_s /. Stat.median (Array.to_list (Array.sub paces lo (hi - lo))))
    walls
