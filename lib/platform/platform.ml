(* Umbrella: everything the rest of the suite needs to know about one
   target platform. *)

type t = {
  id : Arch.platform_id;
  name : string;
  topo : Topology.t;
  hw_mp_latency : (int -> int -> int) option;
      (* Tilera only: hardware message-passing one-way latency between
         two cores (Figure 9: ~61 cycles, nearly distance-insensitive) *)
}

let tilera_hw_mp topo c1 c2 = 18 + (Topology.hops topo c1 c2 / 3)

let make id =
  let topo = Topology.of_platform id in
  {
    id;
    name = topo.Topology.name;
    topo;
    hw_mp_latency =
      (match id with
      | Arch.Tilera -> Some (tilera_hw_mp topo)
      | _ -> None);
  }

let opteron = make Arch.Opteron
let xeon = make Arch.Xeon
let niagara = make Arch.Niagara
let tilera = make Arch.Tilera
let opteron2 = make Arch.Opteron2
let xeon2 = make Arch.Xeon2

let get = function
  | Arch.Opteron -> opteron
  | Arch.Xeon -> xeon
  | Arch.Niagara -> niagara
  | Arch.Tilera -> tilera
  | Arch.Opteron2 -> opteron2
  | Arch.Xeon2 -> xeon2

let all = [ opteron; xeon; niagara; tilera ]

let n_cores t = t.topo.Topology.n_cores
let clock_ghz t = t.topo.Topology.clock_ghz

(* Convert a simulated (ops, cycles) measurement into the paper's
   throughput unit, Mops/s, using the platform clock. *)
let mops t ~ops ~cycles =
  if cycles <= 0 then 0.
  else float_of_int ops *. clock_ghz t *. 1000. /. float_of_int cycles

(* Thread placement (paper section 5.4): thread index -> core. *)
let place t i = t.topo.Topology.place i

(* Cycles of core-local work per benchmark iteration; captures the
   platforms' single-thread performance differences. *)
let local_work t = t.topo.Topology.local_work_cycles

(* Like [local_work] but accounting for hardware-thread co-residency:
   on the Niagara, [threads] contexts share 8 physical cores (and each
   core's two integer pipelines), so per-thread local work slows down
   as contexts pile onto the cores. *)
let local_work_for t ~threads =
  match t.id with
  | Arch.Niagara ->
      let per_core = float_of_int threads /. 8. in
      let slowdown = Float.max 1.0 (0.7 *. per_core) in
      int_of_float (float_of_int (local_work t) *. slowdown)
  | _ -> local_work t
