(* A fixed-size domain pool for fanning independent simulation jobs
   across cores.

   Jobs are pure thunks: each one builds its own [Sim.t] (simulations
   share no mutable state — the engine's counters are domain-local and
   everything else hangs off the per-run [Sim.t]/[Memory.t]), so any
   assignment of jobs to domains computes the same values.  [run]
   therefore returns results indexed by submission order no matter
   which domain ran what, which is what lets the benchmark driver
   render tables byte-identically at any [--jobs] count.

   Scheduling is a single atomic work counter: domains pull the next
   unclaimed job index until none remain.  That gives dynamic load
   balance (job durations vary by orders of magnitude across figure
   sections) without any ordering hazard, because ordering lives in the
   results array, not in execution time.

   Each job's engine-counter delta ([Sim.perf]) and wall time are
   captured inside the domain that executed it; callers sum the per-job
   stats into per-section totals instead of reading a global.  A job
   that wants a trace or metrics sink installs it itself, in the
   domain that runs it, and returns it with its value.

   Jobs recycle their memories' arrays through the executing domain's
   pool ([Memory.dispose]); [run] empties the calling domain's pool
   before it returns, so the last jobs' line tables do not outlive the
   run.  Worker domains' pools die with the domains. *)

type stats = {
  wall_ns : int;  (** wall-clock spent executing the job *)
  perf : Sim.perf;  (** engine-counter delta attributable to the job *)
}

type 'a outcome = Ok_r of 'a | Error_r of exn | Not_run

exception Job_failures of (int * exn) list

let () =
  Printexc.register_printer (function
    | Job_failures fails ->
        Some
          (Printf.sprintf "Pool.Job_failures: %d jobs failed\n%s"
             (List.length fails)
             (String.concat "\n"
                (List.map
                   (fun (i, e) ->
                     Printf.sprintf "  job %d: %s" i (Printexc.to_string e))
                   fails)))
    | _ -> None)

let default_jobs () = Domain.recommended_domain_count ()

(* Run [thunks.(i)] capturing its result, engine-counter delta and wall
   time.  Must execute in the domain that owns the slot's work so the
   domain-local counters attribute correctly. *)
let exec_one (thunks : (unit -> 'a) array) (results : 'a outcome array)
    (stats : stats array) i =
  let before = Sim.cumulative_perf () in
  let t0 = Unix.gettimeofday () in
  (results.(i) <-
    (match thunks.(i) () with
    | v -> Ok_r v
    | exception e -> Error_r e));
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  stats.(i) <-
    { wall_ns; perf = Sim.perf_diff (Sim.cumulative_perf ()) before }

let finish (results : 'a outcome array) (stats : stats array) :
    ('a * stats) array =
  (* Collect every failure first: with independent jobs fanned wide, a
     single re-raised exception hides how broad the breakage was.  One
     failure re-raises the original exception unchanged (backtraces,
     matching callers); several raise [Job_failures], lowest index
     first. *)
  let fails =
    Array.to_seq results
    |> Seq.mapi (fun i r -> (i, r))
    |> Seq.filter_map (function
         | i, Error_r e -> Some (i, e)
         | _ -> None)
    |> List.of_seq
  in
  (match fails with
  | [] -> ()
  | [ (_, e) ] -> raise e
  | _ :: _ -> raise (Job_failures fails));
  Array.mapi
    (fun i r ->
      match r with
      | Ok_r v -> (v, stats.(i))
      | Error_r _ -> assert false
      | Not_run ->
          (* only reachable if a domain died without raising, which
             [Domain.join] would already have surfaced *)
          invalid_arg (Printf.sprintf "Pool.run: job %d never ran" i))
    results

let run ?jobs (thunks : (unit -> 'a) array) : ('a * stats) array =
  let n = Array.length thunks in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let results = Array.make n Not_run in
  let stats = Array.make n { wall_ns = 0; perf = Sim.perf_zero } in
  if jobs = 1 || n <= 1 then
    (* Inline path: no domains, no atomics — the reference behaviour
       the parallel path must reproduce byte-for-byte. *)
    for i = 0 to n - 1 do
      exec_one thunks results stats i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          exec_one thunks results stats i;
          loop ()
        end
      in
      loop ()
    in
    let n_domains = min (jobs - 1) (n - 1) in
    let domains = Array.init n_domains (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end;
  Ssync_coherence.Memory.release_pool ();
  (* Re-raises the exception of the lowest-indexed failed job, so error
     reporting is as deterministic as success is. *)
  finish results stats

let total_stats (results : ('a * stats) array) : stats =
  Array.fold_left
    (fun acc (_, s) ->
      { wall_ns = acc.wall_ns + s.wall_ns; perf = Sim.perf_add acc.perf s.perf })
    { wall_ns = 0; perf = Sim.perf_zero }
    results
