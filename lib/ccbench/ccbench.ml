(* ccbench (paper section 4.2): measures the cost of an operation on a
   cache line depending on the line's MESI state and placement.  The
   line is brought into the desired state through real protocol
   transitions and then accessed from the chosen core, exactly like the
   original tool's 30 cases.  Regenerates Table 2; Table 3 is echoed. *)

open Ssync_platform
open Ssync_coherence

type cell = {
  op : Arch.memop;
  state : Arch.cstate;
  distance : Arch.distance;
  paper : int option; (* the paper's Table 2 value, when reported *)
  measured : int;
}

(* One measured cell: bring a fresh line to [state] held by a core at
   [distance] from the requester, then access it.  Only the Opteron's
   MOESI protocol has an Owned state. *)
let measure_cell pid (op : Arch.memop) (state : Arch.cstate)
    (distance : Arch.distance) : cell option =
  let p = Platform.get pid in
  let topo = p.Platform.topo in
  match Topology.pair_at_distance topo distance with
  | Some (requester, holder)
    when state <> Arch.Owned || pid = Arch.Opteron || pid = Arch.Opteron2 ->
      let mem = Memory.create p in
      Fun.protect
        ~finally:(fun () -> Memory.dispose mem)
        (fun () ->
          (* the model is deterministic: one shot equals the paper's
             10000-repetition mean *)
          let a = Memory.alloc ~home_core:holder mem in
          (* second sharer (for Shared/Owned) must differ from the
             requester *)
          let second =
            let n = Platform.n_cores p in
            let cand = (holder + 1) mod n in
            if cand = requester then (holder + 2) mod n else cand
          in
          Memory.force_state mem ~holder ~second state a;
          Memory.reset_busy mem a;
          (* operands chosen per op: a CAS that succeeds in place, a FAI
             incrementing by 1, a store/swap writing the current value *)
          let operand, operand2 =
            let v = Memory.peek mem a in
            match op with
            | Arch.Cas -> (v, v)
            | Arch.Fai -> (1, 0)
            | Arch.Load | Arch.Store | Arch.Tas | Arch.Swap -> (v, 0)
          in
          let latency, _ =
            Memory.access mem ~core:requester ~now:1_000 op a ~operand
              ~operand2
          in
          Some
            { op; state; distance;
              paper = Latencies.table2 pid op state distance;
              measured = latency })
  | _ -> None

let states_for pid =
  match pid with
  | Arch.Opteron | Arch.Opteron2 ->
      [ Arch.Modified; Arch.Owned; Arch.Exclusive; Arch.Shared; Arch.Invalid ]
  | _ -> [ Arch.Modified; Arch.Exclusive; Arch.Shared; Arch.Invalid ]

let load_store_ops = [ Arch.Load; Arch.Store ]
let atomic_ops = [ Arch.Cas; Arch.Fai; Arch.Tas; Arch.Swap ]

(* All Table 2 cells for one platform, in paper row order. *)
let table2 pid : cell list =
  let distances = Latencies.distance_classes pid in
  List.concat_map
    (fun op ->
      List.concat_map
        (fun state ->
          List.filter_map (fun d -> measure_cell pid op state d) distances)
        (states_for pid))
    (load_store_ops @ atomic_ops)

(* Table 3: local cache and memory latencies, echoed from the paper
   ([Latencies.table3]), not measured: the model has no cache capacity,
   so no access of it is an L2 or LLC hit. *)
let table3 pid : (Arch.cache_level * int option) list =
  List.map (fun lvl -> (lvl, Latencies.table3 pid lvl)) [ Arch.L1; Arch.L2; Arch.LLC; Arch.RAM ]

(* Worst-case Opteron directory placement (section 5.2): both cores two
   hops from the directory. *)
let opteron_remote_directory_load () : int =
  let p = Platform.opteron in
  let mem = Memory.create p in
  Fun.protect
    ~finally:(fun () -> Memory.dispose mem)
    (fun () ->
      (* home on die 5; requester die 0, owner die 3: everybody remote *)
      let a = Memory.alloc ~home_core:(5 * 6) mem in
      ignore (Memory.access mem ~core:18 ~now:0 Arch.Store a ~operand:1);
      Memory.reset_busy mem a;
      let lat, _ = Memory.access mem ~core:0 ~now:1000 Arch.Load a in
      lat)
