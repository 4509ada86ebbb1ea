(* Per-platform cache-coherence cost models: protocol logic only.

   The *logic* (who supplies the data, when a broadcast happens, what is
   local) follows each platform's protocol as described in the paper's
   sections 3 and 5.  Every latency it returns is read from [Latencies]:
   a cell of the paper's Table 2 or 3, or a number of the overlay kept
   beside them, plus the growth and interpolation terms defined here
   (sharer-count effects on invalidations, the Opteron's remote-directory
   penalty of section 5.2, the Tilera's hop interpolation).  Which cell
   serves a case the paper does not report is one of
   [Latencies.overlay]'s rows.

   Everything [op_latency] and [fill_path] reach runs once per simulated
   access, so it allocates nothing and makes no C call: owners are ints,
   topology queries read [Topology]'s tables, sharer scans visit the set
   bits only, each located in constant time ([Coreset.bit_index]), and
   comparisons are [Int] ones.  The exception is a
   transfer on the two-socket platforms (Opteron2, Xeon2), whose
   [scaled_small] builds a remapped view per call; no benchmark
   workload runs one. *)

(* What the memory model knows about a cache line when an operation is
   issued.  [owner] holds the line in Modified/Owned/Exclusive ([-1] =
   none); [sharers] are cores with Shared copies (never
   including [owner]); [home] is the node of the line's directory /
   home tile / memory.  Fields are mutable so the memory model can
   refill one scratch view per access instead of allocating a record on
   every operation. *)
type view = {
  mutable state : Arch.cstate;
  mutable owner : int;
  mutable sharers : Coreset.t;
  mutable home : int;
  mutable llc_dirty : bool;
      (* the last write drained through a store buffer, so on an
         inclusive-LLC machine (Xeon) the home LLC already holds the
         dirty data: a same-die fetch is an LLC hit, not an owner-cache
         round trip.  Cleared by any non-posted write. *)
}

let uncached v = v.owner < 0 && Coreset.is_empty v.sharers
let n_holders v = Coreset.cardinal v.sharers + if v.owner < 0 then 0 else 1
let holds v core = v.owner = core || Coreset.mem v.sharers core

(* Cycles of a load served from the requester's own L1 (Table 3):
   [op_latency]'s local-load branch and [Memory]'s short path for load
   hits both return this. *)
let load_hit_latency (t : Topology.t) = Latencies.l1.(Latencies.table3_col t.id)

(* Distance class between two *nodes* of a topology. *)
let node_class (t : Topology.t) n1 n2 : Arch.distance =
  t.class_tab.((n1 * t.n_nodes) + n2)

let rank_of_class : Arch.distance -> int = function
  | Same_core -> 0
  | Same_die -> 1
  | Same_mcm -> 2
  | One_hop -> 3
  | Two_hops -> 4
  | Max_hops -> 5

let class_of_rank : Arch.distance array =
  [| Same_core; Same_die; Same_mcm; One_hop; Two_hops; Max_hops |]

let n_ranks = Array.length class_of_rank

(* Core ids live in two bitset words (Coreset): bit [i] of [w0] is core
   [i], bit [i] of [w1] is core [63 + i].  The scans below walk one word
   from its lowest set bit up, so cores come in ascending id order; each
   step isolates the lowest set bit and maps it to its core with
   [Coreset.bit_index], a multiply and a table load, so a scan costs one
   step per sharer, not per bit position below it. *)

(* Least [rank * 128 + core] over the sharers in word [w] (cores from
   [base]) as seen from the node-pair row [row]: the closest sharer by
   distance class, ties to the lowest id (core ids are below 128). *)
let rec closest_in_word (t : Topology.t) row w base best =
  if w = 0 then best
  else
    let b = w land -w in
    let c = base + Coreset.bit_index b in
    let key = (rank_of_class t.class_tab.(row + t.core_node.(c)) * 128) + c in
    closest_in_word t row (w lxor b) base (Int.min best key)

(* The core whose cached copy the protocol reaches for: the owner if one
   exists, otherwise the closest sharer — ties keep the lowest id, since
   any same-class representative yields the same latency.  [-1] for
   uncached lines. *)
let source_core (t : Topology.t) ~requester v =
  if v.owner >= 0 then v.owner
  else if Coreset.is_empty v.sharers then -1
  else begin
    let row = t.core_node.(requester) * t.n_nodes in
    let s = v.sharers in
    let best = closest_in_word t row s.Coreset.w0 0 max_int in
    let best = closest_in_word t row s.Coreset.w1 63 best in
    best land 127
  end

let class_to_core (t : Topology.t) ~requester core =
  node_class t t.core_node.(requester) t.core_node.(core)

let class_to_home (t : Topology.t) ~requester v =
  node_class t t.core_node.(requester) v.home

(* Distance class of the transfer serving [requester]: to the data
   source when a cached copy exists, to the line's home otherwise. *)
let source_class t ~requester v =
  let s = source_core t ~requester v in
  if s >= 0 then class_to_core t ~requester s else class_to_home t ~requester v

(* Highest distance rank from row [row] over the cores of word [w]
   other than [requester]. *)
let rec worst_in_word (t : Topology.t) row ~requester w base worst =
  if w = 0 then worst
  else
    let b = w land -w in
    let c = base + Coreset.bit_index b in
    let worst =
      if c = requester then worst
      else Int.max worst (rank_of_class t.class_tab.(row + t.core_node.(c)))
    in
    worst_in_word t row ~requester (w lxor b) base worst

(* An exclusive request on a multi-copy line completes only when the
   farthest remote copy has acknowledged its invalidation, so the
   transaction's distance class is the worst over the data source and
   every other holder (the requester's own copy costs nothing to kill).
   This is what makes a queue lock's cross-socket handoff pay the
   remote row even when the releaser itself shares the line. *)
let invalidation_class (t : Topology.t) ~requester v (base : Arch.distance) :
    Arch.distance =
  let row = t.core_node.(requester) * t.n_nodes in
  let r0 = rank_of_class base in
  let r =
    if v.owner >= 0 && v.owner <> requester then
      Int.max r0 (rank_of_class t.class_tab.(row + t.core_node.(v.owner)))
    else r0
  in
  let r = worst_in_word t row ~requester v.sharers.Coreset.w0 0 r in
  let r = worst_in_word t row ~requester v.sharers.Coreset.w1 63 r in
  if r = r0 then base else class_of_rank.(r)

(* -------------------------------------------------------------- *)
(* Opteron: MOESI, broadcast protocol assisted by an *incomplete*
   directory (the HyperTransport-assist probe filter lives in the LLC of
   the line's home node).  Key behaviours (sections 3.1, 5.2, 5.3):
   - loads cost the same regardless of the previous state;
   - stores/atomics on Shared or Owned lines broadcast invalidations to
     all nodes, even when sharing is confined to one node;
   - when the home (directory) node is remote to both requester and
     owner, latency grows with the distance to the directory. *)

(* Does any core of bitset word [w] (cores from [base]) live on [node]? *)
let rec word_has_node (t : Topology.t) node w base =
  w <> 0
  &&
  let b = w land -w in
  t.core_node.(base + Coreset.bit_index b) = node
  || word_has_node t node (w lxor b) base

(* Extra cycles when the probe-filter lookup happens on a node that is
   neither the requester's nor the owner's (section 5.2: the worst case
   raises a 252-cycle transfer to 312). *)
let opteron_directory_penalty (t : Topology.t) ~requester v =
  if uncached v then 0 (* the home node itself supplies the data *)
  else
  let rnode = t.core_node.(requester) in
  let home = v.home in
  let home_involved =
    home = rnode
    ||
    if v.owner >= 0 then t.core_node.(v.owner) = home
    else
      word_has_node t home v.sharers.Coreset.w0 0
      || word_has_node t home v.sharers.Coreset.w1 63
  in
  if home_involved then 0
  else 30 * Int.max 1 t.hops_tab.((rnode * t.n_nodes) + home)

(* An invalidation broadcast grows slightly with the copy count: storing
   on a line shared by all 48 cores costs 296. *)
let opteron_invalidation_growth v = n_holders v / 12 * 10

let opteron_latency (t : Topology.t) (op : Arch.memop) ~requester v =
  let dir_pen = opteron_directory_penalty t ~requester v in
  let class_of_source = source_class t ~requester v in
  let c = Latencies.opteron_col class_of_source in
  match (op, v.state) with
  | (Arch.Load, st) ->
      (match st with
      | Arch.Modified -> Latencies.opteron_load_m
      | Arch.Owned -> Latencies.opteron_load_o
      | Arch.Exclusive -> Latencies.opteron_load_e
      | Arch.Shared -> Latencies.opteron_load_s
      | Arch.Invalid -> Latencies.opteron_load_i).(c)
      + dir_pen
  | (Arch.Store, (Arch.Modified | Arch.Exclusive)) ->
      Latencies.opteron_store_m.(c) + dir_pen
  | (_, (Arch.Modified | Arch.Exclusive)) -> Latencies.opteron_atomic_m.(c) + dir_pen
  | (_, ((Arch.Owned | Arch.Shared) as st)) ->
      (* the invalidation broadcast reaches every holder *)
      let ci = invalidation_class t ~requester v class_of_source in
      (match (op, st) with
      | (Arch.Store, Arch.Owned) -> Latencies.opteron_store_o
      | (Arch.Store, _) -> Latencies.opteron_store_s
      | _ -> Latencies.opteron_atomic_s).(Latencies.opteron_col ci)
      + opteron_invalidation_growth v + dir_pen
  | (Arch.Store, Arch.Invalid) ->
      Latencies.opteron_load_i.(c) + Latencies.opteron_store_fill_extra + dir_pen
  | (_, Arch.Invalid) ->
      Latencies.opteron_load_i.(c) + Latencies.opteron_atomic_fill_extra + dir_pen

(* -------------------------------------------------------------- *)
(* Xeon: MESI with closest-sharer sourcing, inclusive LLC.  The hardware
   runs MESIF; as in the paper, its F state is folded into Shared, and a
   Shared line is sourced from the closest sharer ([source_core]).
   Within a socket the LLC tracks sharers and serves Shared loads
   directly; across sockets snoop requests are broadcast.
   Operations touching only cores of one socket complete locally
   (section 5.2). *)

(* Storing on a line shared by all 80 cores costs 445. *)
let xeon_invalidation_growth v = Coreset.cardinal v.sharers / 5

let xeon_latency (t : Topology.t) (op : Arch.memop) ~requester v =
  let class_of_source = source_class t ~requester v in
  let c = Latencies.xeon_col class_of_source in
  match (op, v.state) with
  | (Arch.Load, Arch.Modified) ->
      (* the dirty data already drained to the inclusive LLC *)
      if v.llc_dirty && rank_of_class class_of_source <= 1 then
        Latencies.xeon_llc_dirty_load
      else Latencies.xeon_load_m.(c)
  | (Arch.Load, Arch.Exclusive) -> Latencies.xeon_load_e.(c)
  | (Arch.Load, (Arch.Shared | Arch.Owned)) -> Latencies.xeon_load_s.(c)
  | (Arch.Store, Arch.Modified) -> Latencies.xeon_store_m.(c)
  | (Arch.Store, Arch.Exclusive) -> Latencies.xeon_store_e.(c)
  | (_, (Arch.Modified | Arch.Exclusive)) -> Latencies.xeon_atomic_m.(c)
  | (_, (Arch.Shared | Arch.Owned)) ->
      let ci = invalidation_class t ~requester v class_of_source in
      (if op = Arch.Store then Latencies.xeon_store_s
       else Latencies.xeon_atomic_s).(Latencies.xeon_col ci)
      + xeon_invalidation_growth v
  | (Arch.Load, Arch.Invalid) -> Latencies.xeon_load_i.(c)
  | (Arch.Store, Arch.Invalid) ->
      Latencies.xeon_load_i.(c) + Latencies.xeon_store_fill_extra
  | (_, Arch.Invalid) -> Latencies.xeon_load_i.(c) + Latencies.xeon_atomic_fill_extra

(* -------------------------------------------------------------- *)
(* Niagara: uniform crossbar to a shared, duplicate-tag LLC.  Loads hit
   the shared L1 when the previous holder is a context of the same
   physical core, the LLC otherwise; stores are write-through and always
   cost the LLC, fills the RAM; latencies do not depend on the sharer
   count.  SPARC has no FAI/SWAP instruction: both are CAS-based and
   slower, while the hardware TAS is notably fast (section 5.4). *)

(* Same physical core as the data source, or across the crossbar. *)
let niagara_class (t : Topology.t) ~requester v : Arch.distance =
  let s = source_core t ~requester v in
  if s >= 0 then class_to_core t ~requester s else Same_die

let niagara_latency (t : Topology.t) (op : Arch.memop) ~requester v =
  let col3 = Latencies.table3_col Arch.Niagara in
  match (op, v.state) with
  | (Arch.Load, _) when uncached v || v.state = Arch.Invalid ->
      Latencies.ram.(col3)
  | (Arch.Load, _) ->
      Latencies.niagara_load.(Latencies.niagara_col (niagara_class t ~requester v))
  | (Arch.Store, _) -> Latencies.llc.(col3)
  | (_, Arch.Invalid) -> Latencies.ram.(col3) + Latencies.niagara_atomic_fill_extra
  | (_, st) ->
      let m = st = Arch.Modified || st = Arch.Exclusive in
      let row =
        match op with
        | Arch.Cas -> if m then Latencies.niagara_cas_m else Latencies.niagara_cas_s
        | Arch.Fai -> if m then Latencies.niagara_fai_m else Latencies.niagara_fai_s
        | Arch.Tas -> if m then Latencies.niagara_tas_m else Latencies.niagara_tas_s
        | Arch.Swap -> if m then Latencies.niagara_swap_m else Latencies.niagara_swap_s
        | Arch.Load | Arch.Store -> assert false
      in
      row.(Latencies.niagara_col (niagara_class t ~requester v))

(* -------------------------------------------------------------- *)
(* Tilera: distributed directory; each line has a home tile whose L2
   slice acts as the LLC for that line.  Latency grows with the mesh
   distance between the requester and the home tile (about 2 cycles per
   hop); stores on shared lines additionally pay per-sharer
   invalidations (up to ~200 cycles when all 36 tiles share).  FAI is
   executed at the home tile and is the fastest atomic (section 5.4). *)

let tilera_home_hops (t : Topology.t) ~requester v =
  t.hops_tab.((t.core_node.(requester) * t.n_nodes) + v.home)

let tilera_scale ~at1 ~at10 h =
  (* Linear interpolation anchored at the paper's one-hop and max-hop
     (10 mesh hops) measurements, rounded to the nearest cycle: the
     exact value is [x / 9] with [x] below, which is never a half, so
     integer rounding agrees with rounding the float interpolation. *)
  let x = (9 * at1) + ((at10 - at1) * (h - 1)) in
  ((2 * x) + 9) / 18

(* A Tilera row's latency [h] >= 1 mesh hops from the home tile. *)
let tilera_at (row : int array) h =
  tilera_scale
    ~at1:row.(Latencies.tilera_col Arch.One_hop)
    ~at10:row.(Latencies.tilera_col Arch.Max_hops)
    h

(* An atomic issued on the line's home tile: 2/3 of the one-hop cell. *)
let tilera_home_atomic (row : int array) =
  row.(Latencies.tilera_col Arch.One_hop) * 2 / 3

let tilera_invalidation_growth v = 3 * Int.max 0 (Coreset.cardinal v.sharers - 1)

let tilera_fill h =
  if h = 0 then Latencies.tilera_home_fill else tilera_at Latencies.tilera_load_i h

let tilera_latency (t : Topology.t) (op : Arch.memop) ~requester v =
  let h = tilera_home_hops t ~requester v in
  match (op, v.state) with
  | (Arch.Load, _) when uncached v || v.state = Arch.Invalid -> tilera_fill h
  | (Arch.Load, _) ->
      if h = 0 then Latencies.l2.(Latencies.table3_col Arch.Tilera)
      else tilera_at Latencies.tilera_load h
  | (Arch.Store, (Arch.Modified | Arch.Exclusive)) ->
      if h = 0 then Latencies.tilera_home_store else tilera_at Latencies.tilera_store h
  | (Arch.Store, (Arch.Shared | Arch.Owned)) ->
      (if h = 0 then Latencies.tilera_home_store_shared
       else tilera_at Latencies.tilera_store_s h)
      + tilera_invalidation_growth v
  | (Arch.Store, Arch.Invalid) -> tilera_fill h + Latencies.tilera_store_fill_extra
  | (_, Arch.Invalid) -> tilera_fill h + Latencies.tilera_atomic_fill_extra
  | (_, st) ->
      let m = st = Arch.Modified || st = Arch.Exclusive in
      let row =
        match op with
        | Arch.Cas -> if m then Latencies.tilera_cas_m else Latencies.tilera_cas_s
        | Arch.Fai -> if m then Latencies.tilera_fai_m else Latencies.tilera_fai_s
        | Arch.Tas -> if m then Latencies.tilera_tas_m else Latencies.tilera_tas_s
        | Arch.Swap -> if m then Latencies.tilera_swap_m else Latencies.tilera_swap_s
        | Arch.Load | Arch.Store -> assert false
      in
      (if h = 0 then tilera_home_atomic row else tilera_at row h)
      + if m then 0 else tilera_invalidation_growth v

(* -------------------------------------------------------------- *)
(* Small-scale multi-sockets (section 8): intra-socket behaviour equals
   the large machine's; cross-socket latency is the intra-socket one
   scaled by the paper's measured cross/intra ratio. *)

let scaled_small big_latency (t : Topology.t) ratio op ~requester v =
  (* Remap the view onto two same-socket cores (0 and 1) of the large
     sibling platform, preserving whether the requester holds a copy;
     this yields the intra-socket cost, which the measured cross/intra
     ratio then scales when the transaction crosses the socket link. *)
  let remap c = if c = requester then 0 else 1 in
  let fake_owner = if v.owner < 0 then -1 else remap v.owner in
  let fake_sharers = Coreset.create () in
  Coreset.iter
    (fun s ->
      let m = remap s in
      if m <> fake_owner then Coreset.add fake_sharers m)
    v.sharers;
  let fake =
    { state = v.state; owner = fake_owner; sharers = fake_sharers; home = 0;
      llc_dirty = v.llc_dirty }
  in
  let intra = big_latency op ~requester:0 fake in
  let cross =
    let s = source_core t ~requester v in
    let snode = if s >= 0 then t.core_node.(s) else v.home in
    t.hops_tab.((t.core_node.(requester) * t.n_nodes) + snode) > 0
  in
  if cross then int_of_float (Float.round (float_of_int intra *. ratio))
  else intra

(* -------------------------------------------------------------- *)

let op_latency (t : Topology.t) (op : Arch.memop) ~requester (v : view) : int =
  Topology.check t requester;
  (* Local service, answered here and only here: a load by a holder is
     [load_hit_latency], a store by the Modified/Exclusive owner costs
     the Table 3 level it writes, and an x86 atomic by that owner the
     overlay's cell.  The platform functions above, reached only
     through this dispatch, never see these cases ([scaled_small] keeps
     whether the requester holds the line, so neither do the two-socket
     platforms).  Answering them first skips the work the platform
     functions do before they look at the operation
     ([opteron_directory_penalty] and [source_class] on the Opteron,
     [source_class] on the Xeon, the home-hop count on the Tilera) —
     work the simulator's hot path, where most accesses are cache hits,
     would pay on every access. *)
  match op with
  | Arch.Load when holds v requester -> load_hit_latency t
  | Arch.Store
    when v.owner = requester
         && (v.state = Arch.Modified || v.state = Arch.Exclusive) -> (
      match t.id with
      | Arch.Opteron | Arch.Opteron2 | Arch.Xeon | Arch.Xeon2 -> Latencies.l1
      | Arch.Niagara -> Latencies.llc
      | Arch.Tilera -> Latencies.l2).(Latencies.table3_col t.id)
  | (Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap)
    when v.owner = requester
         && (v.state = Arch.Modified || v.state = Arch.Exclusive)
         && (match t.id with
            | Arch.Opteron | Arch.Opteron2 | Arch.Xeon | Arch.Xeon2 -> true
            | Arch.Niagara | Arch.Tilera -> false) ->
      Latencies.x86_owner_atomic
  | _ -> (
      match t.id with
      | Arch.Opteron -> opteron_latency t op ~requester v
      | Arch.Xeon -> xeon_latency t op ~requester v
      | Arch.Niagara -> niagara_latency t op ~requester v
      | Arch.Tilera -> tilera_latency t op ~requester v
      | Arch.Opteron2 ->
          scaled_small (opteron_latency Topology.opteron) t
            Latencies.opteron2_cross_intra op ~requester v
      | Arch.Xeon2 ->
          scaled_small (xeon_latency Topology.xeon) t Latencies.xeon2_cross_intra
            op ~requester v)

(* How long the line (or its directory entry / home-tile slot) stays
   busy serving this operation.  A transfer has two phases: a
   serialized phase (home/directory lookup plus the ownership change,
   which must finish before the next request is accepted) and a
   data-return phase that pipelines with the next requester's own
   invalidate or fetch.  Only the serialized phase reserves the line;
   [op_latency] (what the requesting thread experiences, and what the
   Table 2/3 calibration checks read) is untouched.  Per class:
   - x86 loads that probe a dirty remote copy keep most of the
     transaction serialized — the directory forwards one owner probe
     at a time — which is the reload-storm starvation behind Figure 3's
     non-optimized ticket lock;
   - x86 stores hold the line only for the ownership change; the
     invalidation acks collect while the next reader's fetch is
     already in flight (charging the full store latency here is what
     used to double-count one-way message transfers, EXPERIMENTS.md
     gap 3);
   - atomics are locked read-modify-writes: the line is genuinely held
     for the whole transaction, which caps single-line atomic
     throughput at ~1/latency exactly as in Figure 4.
   The uniform banked LLCs of the single-sockets have small service
   times. *)
let occupancy (t : Topology.t) (op : Arch.memop) ~(state : Arch.cstate)
    ~latency : int =
  match (t.id, op) with
  | ((Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2), Arch.Load) -> (
      match state with
      | Arch.Modified | Arch.Owned | Arch.Exclusive ->
          (* serialized owner probe; only the tail of the data return
             overlaps with the next request *)
          Int.max 1 (latency * 4 / 5)
      | Arch.Shared | Arch.Invalid ->
          (* served by LLC/memory; readers overlap *)
          Int.min latency 30)
  | ((Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2), Arch.Store) ->
      (* ownership change only; the invalidation broadcast overlaps *)
      Int.min latency (Int.max 20 (latency * 3 / 10))
  | ((Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2), _) -> latency
  | (Arch.Niagara, Arch.Load) -> Int.min latency 8
  | (Arch.Niagara, Arch.Store) -> 12
  | (Arch.Niagara, _) -> Int.min latency 60
  | (Arch.Tilera, Arch.Load) -> Int.min latency 12
  | (Arch.Tilera, _) -> Int.min latency 90

(* ------------------------------------------------------------------ *)
(* Finite-bandwidth interconnect & directory resources.

   Line occupancy above serializes requests *to one line*; these
   resources serialize the shared hardware a message crosses on the
   way: the home node's directory / memory controller (the Opteron's
   probe filter, a Xeon LLC slice + home agent, a Tilera home tile's
   L2 slice controller) and each interconnect link on the route from
   the requester to the data source (HyperTransport hops, QPI hops,
   mesh links).  A transfer holds every resource on its path for a
   platform-specific service time; a later message whose path shares a
   resource starts only once it is free.  This is pure queueing: an
   isolated access still costs exactly [op_latency], so the Table 2/3
   calibration is unchanged — what changes is pipelined traffic
   (message passing, lock handoffs, false sharing across lines with a
   common home), which now pays for bandwidth the old model treated as
   infinite.

   The Niagara has no modeled resources: its crossbar is uniform and
   its LLC is banked by address, so the per-line occupancy already is
   the shared-resource bottleneck (and with a single memory node, a
   home-directory resource would serialize the whole machine in a way
   the real part does not).

   Resource ids are dense ints so the memory model can keep busy-until
   times in flat arrays: [0, n_nodes) are home directories, the rest
   unordered node-pair links. *)

let n_resources (t : Topology.t) = t.n_nodes + (t.n_nodes * t.n_nodes)

let link_resource (t : Topology.t) a b =
  let lo = Int.min a b and hi = Int.max a b in
  t.n_nodes + (lo * t.n_nodes) + hi

(* A path is at most: home directory + 10 mesh links (opposite Tilera
   corners). *)
let max_path_len = 12

let has_resources (t : Topology.t) =
  match t.id with Arch.Niagara -> false | _ -> true

(* Fill [path] with the resources crossed by [requester]'s non-local
   access on a line described by [v]: the home directory plus each
   link on a deterministic route from the requester's node to the data
   source's node (the home node when the line is uncached).  Returns
   the number of entries written.  Fully node-local transfers (home
   and data source both on the requester's node) cross no finite
   resource: on-die bandwidth to the local controller is an order of
   magnitude above the cross-node fabric's, so only traffic that
   leaves the node queues.  Routes are deterministic so the same
   access always queues on the same hardware: one direct link per hop
   on the multi-sockets (2-hop pairs route through the lowest
   intermediate node minimizing the detour), dimension-ordered
   X-then-Y on the Tilera mesh. *)
let fill_path (t : Topology.t) ~requester (v : view) (path : int array) : int =
  match t.id with
  | Arch.Niagara -> 0
  | Arch.Tilera ->
      let rnode = t.core_node.(requester) in
      let dst = v.home in
      if rnode = dst then 0
      else begin
      path.(0) <- dst;
      let n = ref 1 in
      let dim = Topology.tilera_dim in
      let x = ref (rnode mod dim) and y = ref (rnode / dim) in
      let dx = dst mod dim and dy = dst / dim in
      let cur = ref rnode in
      while !x <> dx do
        let nx = if dx > !x then !x + 1 else !x - 1 in
        let nxt = (!y * dim) + nx in
        path.(!n) <- link_resource t !cur nxt;
        incr n;
        cur := nxt;
        x := nx
      done;
      while !y <> dy do
        let ny = if dy > !y then !y + 1 else !y - 1 in
        let nxt = (ny * dim) + !x in
        path.(!n) <- link_resource t !cur nxt;
        incr n;
        cur := nxt;
        y := ny
      done;
      !n
      end
  | Arch.Opteron | Arch.Opteron2 | Arch.Xeon | Arch.Xeon2 ->
      let n_nodes = t.n_nodes in
      let rnode = t.core_node.(requester) in
      let snode =
        let s = source_core t ~requester v in
        if s >= 0 then t.core_node.(s) else v.home
      in
      if rnode = snode && rnode = v.home then 0
      else begin
      path.(0) <- v.home;
      let n = ref 1 in
      let h = t.hops_tab.((rnode * n_nodes) + snode) in
      if h = 1 then begin
        path.(1) <- link_resource t rnode snode;
        n := 2
      end
      else if h >= 2 then begin
        let best = ref rnode and best_cost = ref max_int in
        for m = 0 to n_nodes - 1 do
          if m <> rnode && m <> snode then begin
            let c =
              t.hops_tab.((rnode * n_nodes) + m)
              + t.hops_tab.((m * n_nodes) + snode)
            in
            if c < !best_cost then begin
              best_cost := c;
              best := m
            end
          end
        done;
        path.(1) <- link_resource t rnode !best;
        path.(2) <- link_resource t !best snode;
        n := 3
      end;
      !n
      end

(* How long one message holds a home directory: a lookup/update slot in
   the probe filter (Opteron), LLC slice home agent (Xeon) or home
   tile's slice controller (Tilera). *)
let dir_hold (t : Topology.t) : int =
  match t.id with
  | Arch.Niagara -> 0
  | Arch.Opteron | Arch.Opteron2 | Arch.Xeon | Arch.Xeon2 | Arch.Tilera -> 1

(* How long one message holds each link it crosses: the link's
   per-message serialization time (header + payload flits), constant per
   op class, whatever the transfer's latency.  Exclusive transfers
   (stores, atomics) carry the full line payload plus the
   invalidation/ack traffic, so they hold a link longer than reads. *)
let link_hold (t : Topology.t) (op : Arch.memop) : int =
  match t.id with
  | Arch.Niagara -> 0
  | Arch.Opteron | Arch.Opteron2 -> (
      match op with
      | Arch.Load -> 16
      | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> 24)
  | Arch.Xeon | Arch.Xeon2 -> (
      match op with
      | Arch.Load -> 12
      | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> 18)
  | Arch.Tilera -> (
      (* the DDC hashes homes across tiles on the real machine; with
         every allocation homed on one tile here, full-size mesh holds
         would overcharge the two links into that tile *)
      match op with
      | Arch.Load -> 2
      | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> 3)

let resource_hold (t : Topology.t) (op : Arch.memop) r : int =
  if r < t.n_nodes then dir_hold t else link_hold t op
