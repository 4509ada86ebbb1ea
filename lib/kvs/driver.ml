(* A memslap-like load generator for the native store: N domains issue a
   get/set mix over a keyspace for a fixed number of operations and
   report per-thread counts.  (On this container real parallelism is
   limited by the core count; the driver is used for correctness under
   preemptive interleaving and for uncontended Bechamel baselines.) *)

open Ssync_workload

type result = {
  ops : int;
  get_hits : int;
  get_misses : int;
  elapsed_s : float;
  kops : float;
}

type mix = { set_pct : int (* 0..100; rest are gets *) }

let get_only = { set_pct = 0 }
let mixed pct =
  if pct < 0 || pct > 100 then invalid_arg "Driver.mixed: pct out of range";
  { set_pct = pct }

let key_of i = "key:" ^ string_of_int i

(* Preload [n_keys] items so gets can hit. *)
let preload kvs ~n_keys =
  for i = 0 to n_keys - 1 do
    Kvs.set kvs (key_of i) (String.make 32 'v')
  done

let run kvs ~threads ~ops_per_thread ~n_keys ~(mix : mix) : result =
  if threads <= 0 || ops_per_thread <= 0 || n_keys <= 0 then
    invalid_arg "Driver.run: all parameters must be positive";
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker seed () =
    let rng = Rng.create ~seed in
    let dist = Key_dist.uniform ~n:n_keys in
    for _ = 1 to ops_per_thread do
      let k = key_of (Key_dist.sample dist rng) in
      if Rng.int rng 100 < mix.set_pct then Kvs.set kvs k (String.make 32 'x')
      else
        match Kvs.get kvs k with
        | Some _ -> ignore (Atomic.fetch_and_add hits 1)
        | None -> ignore (Atomic.fetch_and_add misses 1)
    done
  in
  let domains =
    List.init threads (fun i -> Domain.spawn (worker (i + 1)))
  in
  List.iter Domain.join domains;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total = threads * ops_per_thread in
  {
    ops = total;
    get_hits = Atomic.get hits;
    get_misses = Atomic.get misses;
    elapsed_s = elapsed;
    kops = (if elapsed > 0. then float_of_int total /. elapsed /. 1000. else 0.);
  }
