(* Interconnect topologies of the four platforms (paper Figure 2 and
   Table 1).  A topology maps hardware contexts ("cores" below, numbered
   0..n_cores-1) to sockets/dies/nodes and gives the hop distance between
   the nodes of any two cores.  It also encodes the thread-placement
   policy the paper uses (section 5.4): fill a socket before moving to the
   next on the multi-sockets, round-robin over physical cores on the
   Niagara, linear tile order on the Tilera. *)

type t = {
  id : Arch.platform_id;
  name : string;
  n_cores : int;          (* usable hardware contexts *)
  n_nodes : int;          (* dies (Opteron), sockets (Xeon), cores (Niagara), tiles (Tilera) *)
  node_of_core : int -> int;
  node_hops : int -> int -> int;  (* hop distance between two nodes *)
  place : int -> int;     (* thread index -> core id *)
  mem_node_of_core : int -> int;  (* memory/home node used for first-touch allocation *)
  line_words : int;
  (* Words per cache line (64-byte lines, 8-byte words, on all four
     platforms — Table 1).  Padded allocations still place one word per
     line; packed allocations co-locate up to [line_words] words on one
     line, which is what makes false sharing expressible. *)
  clock_ghz : float;
  local_work_cycles : int;
  (* Cycles a simulated thread spends on the core-local part of a
     benchmark iteration (loop control, address computation).  Captures
     the single-thread performance differences of section 5.4: the
     in-order 1.2 GHz Niagara and Tilera do much less work per cycle than
     the x86 multi-sockets. *)
  core_node : int array;
  (* The closures above, tabulated once per topology by [tabulate]:
     [core_node.(c)] is [node_of_core c], and [hops_tab]/[class_tab]
     hold [node_hops] and the distance class of every node pair at
     index [n1 * n_nodes + n2].  The cost model reads these on every
     access instead of calling the closures. *)
  hops_tab : int array;
  class_tab : Arch.distance array;
}

let check t core =
  if core < 0 || core >= t.n_cores then
    invalid_arg
      (Printf.sprintf "%s: core %d out of range [0,%d)" t.name core t.n_cores)

let node_of t core =
  check t core;
  t.core_node.(core)

let hops t c1 c2 =
  check t c1;
  check t c2;
  t.hops_tab.((t.core_node.(c1) * t.n_nodes) + t.core_node.(c2))

let same_node t c1 c2 = node_of t c1 = node_of t c2

(* ------------------------------------------------------------------ *)
(* Opteron: 4 multi-chip modules, each with two 6-core dies, i.e. 8
   nodes of 6 cores (the paper treats a die as a socket).  Dies of an
   MCM are 1 hop apart but share more bandwidth; the maximum distance is
   2 hops.  We realize Figure 2(a) with: dies of one MCM adjacent, and
   even-numbered dies fully connected among themselves (one HT link from
   each die to each other MCM), which yields max distance 2. *)

let opteron_die_hops d1 d2 =
  if d1 = d2 then 0
  else if d1 / 2 = d2 / 2 then 1 (* same MCM *)
  else if d1 mod 2 = 0 && d2 mod 2 = 0 then 1 (* direct HT link *)
  else 2

(* Whether two Opteron dies belong to the same multi-chip module. *)
let opteron_same_mcm d1 d2 = d1 <> d2 && d1 / 2 = d2 / 2

(* Distance classification of two *nodes* (Table 2 / Figure 6 columns).
   [Same_core] only exists on the Niagara, [Same_mcm] only on the
   Opteron.  The one copy of the per-platform rules: [tabulate] stores
   it for every node pair, and both the core-level [distance_class] and
   the cost model read that table. *)
let classify_nodes t n1 n2 : Arch.distance =
  match t.id with
  | Arch.Niagara -> if n1 = n2 then Same_core else Same_die
  | Arch.Opteron | Arch.Opteron2 ->
      if n1 = n2 then Same_die
      else if opteron_same_mcm n1 n2 then Same_mcm
      else if t.node_hops n1 n2 = 1 then One_hop
      else Two_hops
  | Arch.Xeon | Arch.Xeon2 ->
      let h = t.node_hops n1 n2 in
      if h = 0 then Same_die else if h = 1 then One_hop else Two_hops
  | Arch.Tilera ->
      let h = t.node_hops n1 n2 in
      if h = 0 then Same_core
      else if h = 1 then One_hop
      else if h >= 9 then Max_hops
      else Two_hops

(* Fill the lookup tables from the closures.  Every topology value goes
   through this after its record literal — including the [{ t with ... }]
   derivations, which would otherwise inherit their parent's tables.
   Plain loops: this runs for all six topologies at every process
   start. *)
let tabulate t =
  let n = t.n_nodes in
  let hops_tab = Array.make (n * n) 0 in
  let class_tab = Array.make (n * n) Arch.Same_die in
  for n1 = 0 to n - 1 do
    for n2 = 0 to n - 1 do
      hops_tab.((n1 * n) + n2) <- t.node_hops n1 n2;
      class_tab.((n1 * n) + n2) <- classify_nodes t n1 n2
    done
  done;
  {
    t with
    core_node = Array.init t.n_cores t.node_of_core;
    hops_tab;
    class_tab;
  }

let opteron =
  tabulate
  {
    id = Arch.Opteron;
    name = "Opteron";
    n_cores = 48;
    n_nodes = 8;
    node_of_core = (fun c -> c / 6);
    node_hops = opteron_die_hops;
    place = (fun i -> i);  (* fill die 0 first, then die 1, ... *)
    mem_node_of_core = (fun c -> c / 6);
    line_words = 8;
    clock_ghz = 2.1;
    local_work_cycles = 40;
    core_node = [||];
    hops_tab = [||];
    class_tab = [||];
  }

let opteron2 =
  tabulate
  {
    opteron with
    id = Arch.Opteron2;
    name = "Opteron2";
    n_cores = 8;
    n_nodes = 2;
    node_of_core = (fun c -> c / 4);
    node_hops = (fun d1 d2 -> if d1 = d2 then 0 else 1);
    mem_node_of_core = (fun c -> c / 4);
  }

(* ------------------------------------------------------------------ *)
(* Xeon: 8 sockets of 10 cores forming a twisted hypercube (Figure 2b):
   max distance two hops.  Sockets differing in exactly one bit of their
   3-bit id are adjacent; every other pair is 2 hops (the twist removes
   the 3-hop diagonals of a plain hypercube). *)

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let xeon_socket_hops s1 s2 =
  if s1 = s2 then 0 else if popcount (s1 lxor s2) = 1 then 1 else 2

let xeon =
  tabulate
  {
    id = Arch.Xeon;
    name = "Xeon";
    n_cores = 80;
    n_nodes = 8;
    node_of_core = (fun c -> c / 10);
    node_hops = xeon_socket_hops;
    place = (fun i -> i);
    mem_node_of_core = (fun c -> c / 10);
    line_words = 8;
    clock_ghz = 2.13;
    local_work_cycles = 40;
    core_node = [||];
    hops_tab = [||];
    class_tab = [||];
  }

let xeon2 =
  tabulate
  {
    xeon with
    id = Arch.Xeon2;
    name = "Xeon2";
    n_cores = 12;
    n_nodes = 2;
    node_of_core = (fun c -> c / 6);
    node_hops = (fun s1 s2 -> if s1 = s2 then 0 else 1);
    mem_node_of_core = (fun c -> c / 6);
  }

(* ------------------------------------------------------------------ *)
(* Niagara: 8 physical cores x 8 hardware threads behind a uniform
   crossbar to a shared LLC.  "Nodes" are the physical cores: two
   contexts of the same core share an L1; everything else is equidistant
   (crossbar), which we encode as 1 hop.  The paper divides threads
   evenly among the physical cores, i.e. round-robin placement. *)

let niagara =
  tabulate
  {
    id = Arch.Niagara;
    name = "Niagara";
    n_cores = 64;
    n_nodes = 8;
    node_of_core = (fun c -> c mod 8);
    node_hops = (fun n1 n2 -> if n1 = n2 then 0 else 1);
    place = (fun i -> i);  (* context i lives on physical core i mod 8 *)
    mem_node_of_core = (fun _ -> 0);  (* single memory node (Table 1) *)
    line_words = 8;
    clock_ghz = 1.2;
    local_work_cycles = 240;
    core_node = [||];
    hops_tab = [||];
    class_tab = [||];
  }

(* ------------------------------------------------------------------ *)
(* Tilera: 36 tiles on a 6x6 mesh; distances are Manhattan distances on
   the grid.  Every tile is a node (distributed LLC home tiles). *)

let tilera_dim = 6

let tilera_tile_hops t1 t2 =
  let x1, y1 = (t1 mod tilera_dim, t1 / tilera_dim) in
  let x2, y2 = (t2 mod tilera_dim, t2 / tilera_dim) in
  abs (x1 - x2) + abs (y1 - y2)

let tilera =
  tabulate
  {
    id = Arch.Tilera;
    name = "Tilera";
    n_cores = 36;
    n_nodes = 36;
    node_of_core = (fun c -> c);
    node_hops = tilera_tile_hops;
    place = (fun i -> i);
    mem_node_of_core = (fun c -> c);  (* home tile = allocating tile *)
    line_words = 8;
    clock_ghz = 1.2;
    local_work_cycles = 120;
    core_node = [||];
    hops_tab = [||];
    class_tab = [||];
  }

let of_platform = function
  | Arch.Opteron -> opteron
  | Arch.Xeon -> xeon
  | Arch.Niagara -> niagara
  | Arch.Tilera -> tilera
  | Arch.Opteron2 -> opteron2
  | Arch.Xeon2 -> xeon2

(* Distance class between the nodes of two cores (reporting and the
   cost model alike; see [classify_nodes]). *)
let distance_class t c1 c2 : Arch.distance =
  check t c1;
  check t c2;
  t.class_tab.((t.core_node.(c1) * t.n_nodes) + t.core_node.(c2))

(* A representative pair of cores at a given distance class, used by the
   uncontested-lock and message-passing benchmarks (Figures 6 and 9).
   Returns [None] if the platform has no such class. *)
let pair_at_distance t (d : Arch.distance) : (int * int) option =
  let mk a b = if a < t.n_cores && b < t.n_cores then Some (a, b) else None in
  match (t.id, d) with
  | (Arch.Niagara, Same_core) -> mk 0 8 (* contexts 0 and 8 share core 0 *)
  | (Arch.Niagara, Same_die) -> mk 0 1 (* adjacent physical cores *)
  | (Arch.Niagara, _) -> None
  | ((Arch.Opteron | Arch.Opteron2), Same_die) -> mk 0 1
  | (Arch.Opteron, Same_mcm) -> mk 0 6
  | (Arch.Opteron, One_hop) -> mk 0 12
  | (Arch.Opteron, Two_hops) ->
      (* die 0 to an odd die of another MCM: 2 hops *)
      mk 0 18
  | (Arch.Opteron2, One_hop) -> mk 0 4
  | (Arch.Opteron2, _) -> None
  | ((Arch.Xeon | Arch.Xeon2), Same_die) -> mk 0 1
  | (Arch.Xeon, One_hop) -> mk 0 10
  | (Arch.Xeon, Two_hops) -> mk 0 30 (* socket 0 -> socket 3 (0b011) *)
  | (Arch.Xeon2, One_hop) -> mk 0 6
  | (Arch.Xeon2, _) -> None
  | (Arch.Tilera, Same_core) -> None
  | (Arch.Tilera, One_hop) -> mk 0 1
  | (Arch.Tilera, Two_hops) -> mk 0 2
  | (Arch.Tilera, Max_hops) -> mk 0 35 (* opposite mesh corners: 10 hops *)
  | (_, _) -> None
