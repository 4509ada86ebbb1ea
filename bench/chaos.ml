(* chaos: deterministic crash-sweep over the robust lock suite.

   Fans a seeded sweep of (platform x lock x seed x crash schedule)
   across the domain pool.  Every run is one pure job: it installs its
   own trace sink, runs a two-line repair workload through the robust
   acquisition paths under [Fault.crash_stop], then replays the trace
   through [Invariant.check] (mutual exclusion, bounded overtaking for
   the FIFO locks, lost wakeups, post-recovery liveness) and checks the
   data invariant the critical sections maintain.  The sweep is
   reproducible run-to-run and at any [--jobs] count.

   A violating configuration is greedily shrunk (fewer victims, fewer
   threads, shorter window) to a minimal repro, printed as a KEY that
   [chaos --repro KEY] replays verbosely, and appended to
   [chaos_repro.txt] for CI to archive.

   The workload's data invariant: each critical section reads [d1],
   bumps [d1], works, bumps [d2] — so [d1 = d2] whenever no holder is
   mid-section.  A crash between the bumps leaves [d1 = d2 + 1] until
   the next grant's [Owner_died] witness repairs it; a final skew of
   anything else is a lost-update/botched-recovery signal no lock-event
   trace can see. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

type cfg = {
  pid : Arch.platform_id;
  algo : Simlock.algo;
  seed : int;
  threads : int;
  duration : int;
  victims : (int * int) list; (* (engine tid, crash time) *)
}

(* KEY: platform:LOCK:seed:threads:duration:v@t[,v@t...] *)
let key_of c =
  Printf.sprintf "%s:%s:%d:%d:%d:%s"
    (String.lowercase_ascii (Arch.platform_name c.pid))
    (Simlock.name c.algo) c.seed c.threads c.duration
    (String.concat ","
       (List.map (fun (v, t) -> Printf.sprintf "%d@%d" v t) c.victims))

let cfg_of_key s =
  match String.split_on_char ':' s with
  | [ p; l; seed; threads; duration; victims ] -> (
      let victim v =
        match String.split_on_char '@' v with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> Some (a, b)
            | _ -> None)
        | _ -> None
      in
      let vs =
        if victims = "" then Some []
        else
          let parts = String.split_on_char ',' victims in
          let parsed = List.filter_map victim parts in
          if List.length parsed = List.length parts then Some parsed else None
      in
      match
        ( Arch.platform_of_string p,
          Simlock.of_string l,
          int_of_string_opt seed,
          int_of_string_opt threads,
          int_of_string_opt duration,
          vs )
      with
      | Some pid, Some algo, Some seed, Some threads, Some duration, Some v ->
          Some { pid; algo; seed; threads; duration; victims = v }
      | _ -> None)
  | _ -> None

type outcome = {
  o_cfg : cfg;
  o_completed : bool; (* engine verdict was Completed *)
  o_violations : string list; (* pretty-printed, deterministic order *)
  o_steals : int;
  o_crashed : int; (* threads actually crash-stopped *)
  o_grants : int;
  o_owner_deaths : int;
  o_dead_holders : int;
  o_excised : int;
  o_recoveries : int;
  o_recovery_cycles : int;
  o_max_overtakes : int;
  o_ops : int;
  o_truncated : bool;
}

let ok o = o.o_violations = []

(* ------------------------------------------------------------------ *)
(* One chaos run: the pure job the pool executes. *)

type shared = {
  lock : Lock_type.t;
  d1 : Memory.addr;
  d2 : Memory.addr;
  last1 : int ref; (* the value last stored to [d1] *)
  last2 : int ref; (* ... and to [d2] *)
}

(* [d1]/[d2] are written only through [put], which notes each value as
   it stores it.  [Harness.run] disposes the memory before it returns,
   so the words cannot be read afterwards; the notes hold their final
   contents instead, because a store applies the moment it issues, even
   when its thread crash-stops before the store completes. *)
let put last a v =
  last := v;
  Sim.store a v

let run_one (c : cfg) : outcome =
  let p = Platform.get c.pid in
  let faults = Fault.crash_stop ~seed:c.seed c.victims in
  let captured = ref None in
  let run () =
    Harness.run ~faults p ~threads:c.threads ~duration:c.duration
      ~setup:(fun mem ->
        let sh =
          {
            lock = Simlock.create mem p ~n_threads:c.threads c.algo;
            d1 = Memory.alloc ~home_core:0 mem;
            d2 = Memory.alloc ~home_core:0 mem;
            last1 = ref 0;
            last2 = ref 0;
          }
        in
        captured := Some sh;
        sh)
      ~body:(fun sh _mem ~tid ~deadline ->
        let n = ref 0 in
        while Sim.now () < deadline do
          (match Lock_type.acquire_robust sh.lock ~tid with
          | Lock_type.Clean -> ()
          | Lock_type.Owner_died _ ->
              (* repair: the corpse may have bumped d1 but not d2 *)
              put sh.last2 sh.d2 (Sim.load sh.d1));
          let x = Sim.load sh.d1 in
          put sh.last1 sh.d1 (x + 1);
          Sim.pause 60;
          put sh.last2 sh.d2 (x + 1);
          Lock_type.release_robust sh.lock ~tid;
          incr n;
          Sim.pause 120
        done;
        !n)
  in
  let { Section.value = r; trace; _ } =
    Section.observe ~trace:true ~capacity:(1 lsl 18) run ()
  in
  let tr = Option.get trace in
  let sh = Option.get !captured in
  let order = Harness.spawn_order ~threads:c.threads in
  let completed etid =
    etid >= 0 && etid < c.threads && r.Harness.completed.(order.(etid))
  in
  let rep = Invariant.check ~completed tr in
  let violations = List.map Invariant.pp_violation rep.Invariant.violations in
  let violations =
    if r.Harness.health.Sim.verdict = Sim.Completed then violations
    else
      violations
      @ [
          Printf.sprintf "[stall] %s"
            (Sim.verdict_to_string r.Harness.health.Sim.verdict);
        ]
  in
  (* the critical sections' own invariant, invisible to lock events *)
  let d1 = !(sh.last1) and d2 = !(sh.last2) in
  let crashed = List.length r.Harness.health.Sim.crashed in
  let violations =
    if d1 = d2 then violations
    else if d1 = d2 + 1 && crashed > 0 then
      (* a victim died between the bumps and no grant followed to
         repair it: consistent with crash-stop, not a violation *)
      violations
    else
      violations
      @ [
          Printf.sprintf
            "[data] d1=%d d2=%d after the run (crashed=%d): lost update or \
             botched recovery"
            d1 d2 crashed;
        ]
  in
  let st = sh.lock.Lock_type.rstats in
  {
    o_cfg = c;
    o_completed = r.Harness.health.Sim.verdict = Sim.Completed;
    o_violations = violations;
    o_steals = rep.Invariant.steals;
    o_crashed = crashed;
    o_grants = st.Lock_type.r_grants;
    o_owner_deaths = st.Lock_type.r_owner_deaths;
    o_dead_holders = st.Lock_type.r_dead_holders;
    o_excised = st.Lock_type.r_excised;
    o_recoveries = st.Lock_type.r_recoveries;
    o_recovery_cycles = st.Lock_type.r_recovery_cycles;
    o_max_overtakes = rep.Invariant.max_overtakes;
    o_ops = r.Harness.total_ops;
    o_truncated = rep.Invariant.truncated;
  }

(* ------------------------------------------------------------------ *)
(* Sweep construction.  Crash schedules are fractions of the window so
   the same shapes stress early (mid-queue), middle (in-CS) and late
   (near-deadline) deaths at any duration; the double-crash schedule
   exercises multi-corpse excision. *)

let schedules ~duration =
  [
    [ (0, duration * 15 / 100) ];
    [ (2, duration * 45 / 100) ];
    [ (0, duration * 30 / 100); (3, duration * 60 / 100) ];
  ]

let sweep ~quick =
  let platforms =
    if quick then [ Arch.Opteron ] else [ Arch.Opteron; Arch.Xeon; Arch.Niagara ]
  in
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  let threads = 6 and duration = 120_000 in
  List.concat_map
    (fun pid ->
      let p = Platform.get pid in
      List.concat_map
        (fun algo ->
          List.concat_map
            (fun seed ->
              List.map
                (fun victims -> { pid; algo; seed; threads; duration; victims })
                (schedules ~duration))
            seeds)
        (Simlock.algos_for p))
    platforms

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily re-run smaller variants of a violating config
   until none still violates.  Order matters for determinism: drop
   extra victims first, then shed threads, then shorten the window. *)

let candidates c =
  let min_threads =
    2 + List.fold_left (fun m (v, _) -> max m v) 0 c.victims
  in
  List.concat
    [
      (match c.victims with
      | _ :: _ :: _ -> [ { c with victims = [ List.hd c.victims ] } ]
      | _ -> []);
      (if c.threads > min_threads then
         [
           { c with threads = max min_threads (c.threads / 2) };
           { c with threads = c.threads - 1 };
         ]
       else []);
      (if c.duration > 30_000 then
         [ { c with duration = c.duration * 3 / 4 } ]
       else []);
    ]

let shrink c0 =
  let budget = ref 40 in
  let rec go c =
    if !budget <= 0 then c
    else
      let next =
        List.find_opt
          (fun c' ->
            if !budget <= 0 then false
            else begin
              decr budget;
              not (ok (run_one c'))
            end)
          (candidates c)
      in
      match next with Some c' -> go c' | None -> c
  in
  go c0

(* ------------------------------------------------------------------ *)
(* Scorecard: one row per (platform, lock), aggregated over the sweep.
   Mean recovery latency is cycles from first detecting a recovery
   condition to the grant that closed the episode. *)

let scorecard outcomes =
  let module Table = Ssync_report.Table in
  let key o =
    (Arch.platform_name o.o_cfg.pid, Simlock.name o.o_cfg.algo)
  in
  let keys =
    List.fold_left
      (fun acc o -> if List.mem (key o) acc then acc else key o :: acc)
      [] outcomes
    |> List.rev
  in
  let t =
    Table.create
      ~aligns:
        [
          Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        ]
      [
        "platform"; "lock"; "runs"; "ok"; "crashes"; "recoveries";
        "excised"; "steals"; "rec-cy"; "violations";
      ]
  in
  List.iter
    (fun k ->
      let os = List.filter (fun o -> key o = k) outcomes in
      let sum f = List.fold_left (fun a o -> a + f o) 0 os in
      let recoveries = sum (fun o -> o.o_recoveries) in
      let rec_cy =
        if recoveries = 0 then "-"
        else
          Printf.sprintf "%d" (sum (fun o -> o.o_recovery_cycles) / recoveries)
      in
      Table.add_row t
        [
          fst k; snd k;
          string_of_int (List.length os);
          string_of_int (List.length (List.filter ok os));
          string_of_int (sum (fun o -> o.o_crashed));
          string_of_int recoveries;
          string_of_int (sum (fun o -> o.o_excised));
          string_of_int (sum (fun o -> o.o_steals));
          rec_cy;
          string_of_int (sum (fun o -> List.length o.o_violations));
        ])
    keys;
  Table.print t

let print_outcome o =
  Printf.printf
    "%s\n  verdict: %s  ops: %d  crashed: %d  grants: %d  owner-deaths: %d\n\
    \  dead-holders: %d  excised: %d  steals: %d  recoveries: %d  rec-cy: %d\n\
    \  max-overtakes: %d%s\n"
    (key_of o.o_cfg)
    (if o.o_completed then "completed" else "STALLED")
    o.o_ops o.o_crashed o.o_grants o.o_owner_deaths o.o_dead_holders o.o_excised
    o.o_steals o.o_recoveries o.o_recovery_cycles o.o_max_overtakes
    (if o.o_truncated then "  (trace ring overflowed: checks partial)" else "");
  List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) o.o_violations

(* ------------------------------------------------------------------ *)

let run_repro key =
  match cfg_of_key key with
  | None ->
      Printf.eprintf "chaos --repro: malformed key %S\n" key;
      exit 2
  | Some c ->
      let o = run_one c in
      print_outcome o;
      if ok o then begin
        Printf.printf "OK: no violation\n";
        exit 0
      end
      else exit 1

let run ~quick ~jobs args =
  (match args with
  | [ "--repro"; key ] -> run_repro key
  | [ "--repro" ] ->
      Printf.eprintf "chaos --repro: missing KEY\n";
      exit 2
  | [] -> ()
  | a :: _ ->
      Printf.eprintf "chaos: unknown argument %S (try --repro KEY)\n" a;
      exit 2);
  let cfgs = sweep ~quick in
  (* the domain count is left out so the output is the same at any
     [--jobs] *)
  Printf.printf "chaos sweep: %d runs (%s mode)\n%!" (List.length cfgs)
    (if quick then "quick" else "full");
  let thunks = Array.of_list (List.map (fun c () -> run_one c) cfgs) in
  let results = Pool.run ~jobs thunks in
  let outcomes = Array.to_list (Array.map fst results) in
  scorecard outcomes;
  let bad = List.filter (fun o -> not (ok o)) outcomes in
  if bad = [] then
    Printf.printf "\nOK: %d runs, every lock recovered, zero violations\n"
      (List.length outcomes)
  else begin
    Printf.printf "\n%d violating run(s); shrinking to minimal repros...\n"
      (List.length bad);
    let oc = open_out "chaos_repro.txt" in
    List.iter
      (fun o ->
        print_outcome o;
        let c' = shrink o.o_cfg in
        Printf.printf "  shrunk repro: --repro %s\n" (key_of c');
        Printf.fprintf oc "%s\n" (key_of c'))
      bad;
    close_out oc;
    Printf.printf "(shrunk keys written to chaos_repro.txt)\n";
    exit 1
  end
