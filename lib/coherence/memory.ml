(* A simulated coherent memory: the machine-wide state of every cache
   line, the protocol transitions applied by loads/stores/atomics, and
   the virtual-time cost of each access.

   Addresses are *word*-granular; coherence is *line*-granular.  A
   cache line holds up to [Topology.line_words] words: its protocol
   state, occupancy and parked waiters belong to the line, while each
   word keeps its own value.  The
   default allocator ([alloc]) still pads every word to its own line —
   the paper's benchmarks pad shared words to a line each, so every
   paper-derived workload is unchanged — but [alloc_packed] co-locates
   consecutive words on shared lines, which makes false sharing
   expressible: a store to one word invalidates every other word's
   holders on the same line.

   Costs come from the platform's calibrated cost model; contention is
   modeled by two kinds of occupancy:
   - *line* occupancy: an exclusive transaction keeps the line (its
     directory entry / home-tile slot) busy for its serialized phase,
     so concurrent requests to one line serialize — the mechanism
     behind the paper's Figures 4 and 5;
   - *resource* occupancy: the transfer also holds the home node's
     directory/memory controller and every interconnect link it
     crosses ([Cost_model.fill_path]) for a service time, so pipelined
     traffic between the same nodes queues even across different lines
     — the interconnect-bandwidth term the paper's two-hop
     message-passing latencies exhibit.

   Lines additionally carry a wait list of parked spinners (see
   [try_park_in]): a thread whose spin loop has reached a steady state —
   every probe a local cache hit that changes nothing — is suspended
   here instead of burning one simulation event per probe.  Any real
   access to the line revalidates the parked waiters: probes that the
   poll loop would have issued before the access are bulk-accounted,
   and waiters whose next probe would no longer be inert are woken to
   replay it for real, on the exact virtual-time grid the poll loop
   would have used.  Waiters park on the line but spin on their own
   word, so a real access to a *different* word of a packed line
   disturbs them exactly like the false sharing it models.

   Line state lives in one flat table, like a hardware directory's
   entries: [lw] consecutive ints per line id in [t.ls] (state code
   with the [llc_dirty] bit, owner, two sharer bitset words, home,
   busy-until, prefetch reservation, pending CAS), plus a wait-list
   head per line id in [t.wqs].  Setting up a line writes its ints and
   allocates nothing, and an access touches one 64-byte entry instead
   of a record and its sharer set.

   The memory keeps one set of per-access scratch state — the
   cost-model view (filled from the table once per access, before the
   access mutates the line, and read by every cost-model call the
   access makes; it owns its sharer set), the resource-path buffer and
   the [last_result] out-parameter — plus the running [Stats.t] and,
   when metrics are on, the domain's metrics sink, which every sampled
   access writes into directly, so the engine's per-operation path
   allocates nothing.  Most accesses of a run hit in the requester's
   own cache: loads of a line it holds, stores and atomics on a line it
   holds alone, Modified or Exclusive.  On a line no spinner is parked
   on, [access_lat_in] serves them on a short path, metrics on or off,
   that skips the queueing, the resource path, the transition and the
   wake walk; a load hit there returns the platform's hit latency
   without filling the view. *)

open Ssync_platform
module Trace = Ssync_trace.Trace
module Metrics = Ssync_metrics.Metrics

type addr = int

(* An immutable copy of one line's entry (tests/debug; see [line]). *)
type line = {
  state : Arch.cstate;
  owner : int;
  sharers : Coreset.t;
  home : int;
  busy_until : int;
  pfw_owner : int;
  cas_pending : int;
  llc_dirty : bool;
  wq : waiter option;
}

(* A parked spinner: the spin loop [probe; while result = w_while:
   pause w_poll; probe] whose probes are currently inert.  [w_next] is
   the virtual time its next probe would issue; successive probes sit
   on the grid [w_next + i * (w_hit + w_poll)] (probe latency + poll
   pause).  [w_replay] hands the wake time back to the engine, which re-issues
   the probe for real.

   [w_tie] decides whether a probe issuing on an access's own cycle ran
   before that access: the engine's ancestry order for waiters parked
   exactly under faults, [no_tie] (the access wins) for the others. *)
and waiter = {
  w_core : int;
  w_addr : addr;                (* the word the spin loop polls *)
  w_op : Arch.memop;
  w_operand : int;
  w_operand2 : int;
  w_while : int;
  w_poll : int;
  w_hit : int;                  (* service latency of one inert probe *)
  w_local : bool;               (* inert probes are local hits (false for
                                   foreign-reservation directed reads) *)
  w_parked : int;               (* virtual time the spinner parked (waiter-
                                   depth telemetry, charged at wake) *)
  mutable w_next : int;
  w_tie : int -> bool;
  w_replay : int -> unit;
  mutable w_link : waiter;      (* next on the line (see [t.wqs]) *)
}

(* The line table: entry [li] is [ls.(li * lw) .. ls.(li * lw + lw - 1)],
   at these offsets. *)
let lw = 8

let f_state = 0
    (* [Arch.cstate_index] of the protocol state, plus [llc_bit] when the
       last write drained through the store buffer into the inclusive
       LLC (posted store): a same-die fetch of this Modified line is an
       LLC hit, not an owner round trip (Xeon) *)

let f_owner = 1
    (* core holding Modified/Owned/Exclusive, -1 = none *)

let f_sh0 = 2
let f_sh1 = 3
    (* cores holding Shared copies: [Coreset]'s two bitset words *)

let f_home = 4 (* home node (directory / home tile / memory) *)
let f_busy = 5 (* virtual time the line is occupied until *)

let f_pfw = 6
    (* core holding an exclusive-prefetch reservation (-1 = none;
       section 5.3):
       set by a prefetchw probe, cleared by any other real access.
       While a foreign reservation holds, other prefetchw probes
       degrade to directed read snoops that steal nothing. *)

let f_cas = 7
    (* core whose CAS just lost on this line (-1 = none): its request
       stays posted at the line and wins the next grant, so its retry
       skips the queue instead of observing a value one full transfer
       stale (hardware pending-request arbitration, the fix for
       CAS-based FAI over-degrading in Figure 4).  Replaced by later
       losers; consumed by the pending core's next access. *)

let state_mask = 7
let llc_bit = 8

(* The codes of the states [transition] writes, looked up once.  The
   release build (dune-workspace) inlines [Arch.cstate_index], but a
   build with [-opaque] ([dune build --profile dev]) would make each
   lookup a real call, about 2% of host time on a contended lock; the
   constants keep [transition] the same code under both. *)
let c_modified = Arch.cstate_index Arch.Modified
let c_owned = Arch.cstate_index Arch.Owned
let c_exclusive = Arch.cstate_index Arch.Exclusive
let c_shared = Arch.cstate_index Arch.Shared
let c_invalid = Arch.cstate_index Arch.Invalid

let[@inline] state_at ls b =
  Arch.cstate_of_index.(ls.(b + f_state) land state_mask)
let[@inline] llc_dirty_at ls b = ls.(b + f_state) land llc_bit <> 0

(* Set the protocol state to code [c], keeping the [llc_dirty] bit. *)
let[@inline] set_state ls b c =
  ls.(b + f_state) <- (ls.(b + f_state) land llc_bit) lor c

let[@inline] set_llc_dirty ls b d =
  ls.(b + f_state) <-
    (ls.(b + f_state) land state_mask) lor if d then llc_bit else 0

(* Sharer operations on the entry's two words, with [Coreset]'s layout
   and range check. *)
let[@inline] sharer_mem ls b c =
  Coreset.check c;
  if c < 63 then ls.(b + f_sh0) land (1 lsl c) <> 0
  else ls.(b + f_sh1) land (1 lsl (c - 63)) <> 0

let[@inline] sharer_add ls b c =
  Coreset.check c;
  if c < 63 then ls.(b + f_sh0) <- ls.(b + f_sh0) lor (1 lsl c)
  else ls.(b + f_sh1) <- ls.(b + f_sh1) lor (1 lsl (c - 63))

let[@inline] no_sharers ls b = ls.(b + f_sh0) lor ls.(b + f_sh1) = 0

let[@inline] clear_sharers ls b =
  ls.(b + f_sh0) <- 0;
  ls.(b + f_sh1) <- 0

let n_sharers ls b =
  Coreset.popcount ls.(b + f_sh0) + Coreset.popcount ls.(b + f_sh1)

type t = {
  platform : Platform.t;
  mutable ls : int array;       (* the line table, [lw] ints per line id *)
  mutable wqs : waiter array;
      (* per line id: the parked spinners in park order, a circular list
         through [w_link]; the slot holds the last parked, whose [w_link]
         is the first, so an append is O(1) ([no_waiter] = none) *)
  mutable n_lines : int;
  mutable values : int array;   (* indexed by word address *)
  mutable word2line : int array; (* word address -> line id *)
  mutable n_words : int;
  rbusy : int array;
      (* finite-bandwidth interconnect resources, indexed by resource id
         (home directories then links, see [Cost_model.fill_path]):
         virtual time each resource is held until *)
  hit_lat : int;                (* [Cost_model.load_hit_latency] *)
  scratch : Cost_model.view;    (* reused for every op_latency call *)
  path : int array;             (* reused resource-path scratch *)
  mutable last_result : int;
      (* result value of the most recent [access_lat] — an out-parameter
         that spares the engine's hot path one tuple allocation per
         memory operation *)
  stats : Stats.t;
  macc : Metrics.t option;
      (* the domain's metrics sink, cached at creation like [trace]
         and written as each sample is taken: [None] when metrics are
         off, so the sampled hot path costs one option match *)
  trace : Trace.t option;
      (* the domain's trace sink, cached at creation time so the
         untraced hot path pays exactly one option match per access *)
  mutable msince : int array;
      (* per-line virtual time the sharer-count gauge last sampled,
         indexed by line id; [[||]] when metrics are off *)
}

let no_tie (_ : int) = false

let rec no_waiter =
  { w_core = -1; w_addr = -1; w_op = Arch.Load; w_operand = 0; w_operand2 = 0;
    w_while = 0; w_poll = 0; w_hit = 1; w_local = true; w_parked = 0;
    w_next = max_int; w_tie = no_tie; w_replay = ignore; w_link = no_waiter }

(* Domain-local recycling pool.  A benchmark harness creates one memory
   per job and thousands of jobs per section; the line table and the
   word-indexed arrays dominate each job's setup allocation
   (and the minor-GC promotion traffic that goes with it), so
   [dispose]d memories donate them to the next [create] on the same
   domain.  [new_line]/[new_word] initialise every recycled cell
   explicitly, so a pooled array needs no cleaning here.  Domain-local
   (no lock): job fan-out runs whole jobs per domain. *)
type recycled = {
  r_ls : int array;
  r_wqs : waiter array;
  r_values : int array;
  r_word2line : int array;
}

let pool_key : recycled list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let pool_max = 4

let create platform =
  let trace = Trace.current () in
  (match trace with
  | Some tr ->
      (* successive simulations in one traced job map onto a single
         forward timeline; see [Trace.new_epoch] *)
      Trace.new_epoch tr;
      Trace.set_platform tr platform.Platform.name
  | None -> ());
  let metrics = Metrics.current () in
  (* like the trace, successive simulations in one sampled job map onto
     disjoint grid segments *)
  (match metrics with Some m -> Metrics.new_epoch m | None -> ());
  let topo = platform.Platform.topo in
  let n_res = Cost_model.n_resources topo in
  let pool = Domain.DLS.get pool_key in
  let ls, wqs, values, word2line =
    match !pool with
    | r :: rest ->
        pool := rest;
        (r.r_ls, r.r_wqs, r.r_values, r.r_word2line)
    | [] ->
        ( Array.make (1024 * lw) 0,
          Array.make 1024 no_waiter,
          Array.make 1024 0,
          Array.make 1024 0 )
  in
  {
    platform;
    ls;
    wqs;
    n_lines = 0;
    values;
    word2line;
    n_words = 0;
    rbusy = Array.make n_res 0;
    hit_lat = Cost_model.load_hit_latency topo;
    scratch =
      { Cost_model.state = Arch.Invalid; owner = -1;
        sharers = Coreset.create (); home = 0; llc_dirty = false };
    path = Array.make Cost_model.max_path_len 0;
    last_result = 0;
    stats = Stats.create ();
    macc = metrics;
    trace;
    msince =
      (match metrics with
      | None -> [||]
      | Some _ -> Array.make (Array.length wqs) 0);
  }

(* Return the memory's recyclable arrays to the domain pool.  The
   caller promises no live simulation references [t] any more; [t]
   itself becomes unusable (word/line counts are zeroed so any stale
   access trips the bounds checks).  Wait lists are cleared eagerly —
   parked-probe replay closures can retain an entire dead simulation. *)
let dispose t =
  for li = 0 to t.n_lines - 1 do
    if t.wqs.(li) != no_waiter then t.wqs.(li) <- no_waiter
  done;
  t.n_lines <- 0;
  t.n_words <- 0;
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < pool_max then
    pool :=
      {
        r_ls = t.ls;
        r_wqs = t.wqs;
        r_values = t.values;
        r_word2line = t.word2line;
      }
      :: !pool

let platform t = t.platform
let stats t = t.stats
let n_lines t = t.n_lines
let line_words t = t.platform.Platform.topo.Topology.line_words

(* Append one line homed at node [home]; returns its line id.  Every
   cell of the entry is written explicitly: the arrays may be recycled
   from a disposed memory ([dispose]), so nothing may rely on
   allocation-time fills. *)
let new_line t ~home =
  if t.n_lines = Array.length t.wqs then begin
    let cap = 2 * Array.length t.wqs in
    let ls = Array.make (cap * lw) 0 in
    Array.blit t.ls 0 ls 0 (t.n_lines * lw);
    t.ls <- ls;
    let wqs = Array.make cap no_waiter in
    Array.blit t.wqs 0 wqs 0 t.n_lines;
    t.wqs <- wqs;
    if Array.length t.msince > 0 then begin
      let b = Array.make cap 0 in
      Array.blit t.msince 0 b 0 t.n_lines;
      t.msince <- b
    end
  end;
  let li = t.n_lines in
  let ls = t.ls and b = li * lw in
  ls.(b + f_state) <- c_invalid;
  ls.(b + f_owner) <- -1;
  ls.(b + f_sh0) <- 0;
  ls.(b + f_sh1) <- 0;
  ls.(b + f_home) <- home;
  ls.(b + f_busy) <- 0;
  ls.(b + f_pfw) <- -1;
  ls.(b + f_cas) <- -1;
  t.wqs.(li) <- no_waiter;
  if Array.length t.msince > 0 then t.msince.(li) <- 0;
  t.n_lines <- li + 1;
  li

(* Append one word on line [li]; returns its (word) address. *)
let new_word t ~line:li ~value =
  if t.n_words = Array.length t.values then begin
    let cap = 2 * Array.length t.values in
    let grow src init =
      let b = Array.make cap init in
      Array.blit src 0 b 0 t.n_words;
      b
    in
    t.values <- grow t.values 0;
    t.word2line <- grow t.word2line 0
  end;
  let a = t.n_words in
  t.values.(a) <- value;
  t.word2line.(a) <- li;
  t.n_words <- a + 1;
  a

let alloc ?(home_core = 0) ?(value = 0) t : addr =
  Topology.check t.platform.Platform.topo home_core;
  let home = t.platform.Platform.topo.Topology.mem_node_of_core home_core in
  let li = new_line t ~home in
  new_word t ~line:li ~value

let alloc_n ?(home_core = 0) ?(value = 0) t n : addr =
  if n <= 0 then invalid_arg "Memory.alloc_n: n must be positive";
  let base = alloc ~home_core ~value t in
  for _ = 2 to n do
    ignore (alloc ~home_core ~value t)
  done;
  base

(* Allocate [n] consecutive words *packed* onto as few lines as the
   platform's line size allows (ceil(n / line_words) lines, all homed
   at [home_core]'s node); returns the first address.  Words of one
   line share coherence state, occupancy and waiters — this is the
   allocator that makes false sharing happen. *)
let alloc_packed ?(home_core = 0) ?(value = 0) t n : addr =
  if n <= 0 then invalid_arg "Memory.alloc_packed: n must be positive";
  Topology.check t.platform.Platform.topo home_core;
  let home = t.platform.Platform.topo.Topology.mem_node_of_core home_core in
  let wpl = t.platform.Platform.topo.Topology.line_words in
  let base = ref (-1) in
  let remaining = ref n in
  while !remaining > 0 do
    let li = new_line t ~home in
    let k = Int.min wpl !remaining in
    for _ = 1 to k do
      let a = new_word t ~line:li ~value in
      if !base < 0 then base := a
    done;
    remaining := !remaining - k
  done;
  !base

let line_id t a =
  if a < 0 || a >= t.n_words then
    invalid_arg (Printf.sprintf "Memory.line: address %d out of range" a);
  t.word2line.(a)

let line t a =
  let li = line_id t a in
  let ls = t.ls and b = li * lw in
  let w = t.wqs.(li) in
  {
    state = state_at ls b;
    owner = ls.(b + f_owner);
    sharers = { Coreset.w0 = ls.(b + f_sh0); w1 = ls.(b + f_sh1) };
    home = ls.(b + f_home);
    busy_until = ls.(b + f_busy);
    pfw_owner = ls.(b + f_pfw);
    cas_pending = ls.(b + f_cas);
    llc_dirty = llc_dirty_at ls b;
    wq = (if w == no_waiter then None else Some w);
  }

(* Do two addresses share a cache line? (tests/metrics) *)
let same_line t a b = line_id t a = line_id t b

(* ------------------------------------------------------------------ *)

(* Debug/test access that costs nothing and moves no state; [line_id]
   still rejects an out-of-range address. *)
let peek t a =
  ignore (line_id t a);
  t.values.(a)

let poke t a v =
  ignore (line_id t a);
  t.values.(a) <- v

(* Refill the scratch view from line [li]'s entry.  The view owns its
   sharer set, so it describes the line only until the next mutation:
   an access fills it once, before it changes the line, and hands the
   same view to each of its cost-model calls. *)
let view_of_line t li : Cost_model.view =
  let v = t.scratch and ls = t.ls and b = li * lw in
  v.Cost_model.state <- state_at ls b;
  v.Cost_model.owner <- ls.(b + f_owner);
  v.Cost_model.sharers.Coreset.w0 <- ls.(b + f_sh0);
  v.Cost_model.sharers.Coreset.w1 <- ls.(b + f_sh1);
  v.Cost_model.home <- ls.(b + f_home);
  v.Cost_model.llc_dirty <- llc_dirty_at ls b;
  v

let[@inline] holds ls b core = ls.(b + f_owner) = core || sharer_mem ls b core

(* Is this access served entirely from the requester's own cache (no
   global transaction, no serialization)? *)
let is_local_hit ls b core (op : Arch.memop) =
  match op with
  | Arch.Load -> holds ls b core
  | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap ->
      ls.(b + f_owner) = core

(* A fetch-and-add of 0 is an exclusive-prefetch probe (prefetchw +
   load, section 5.3): it costs a store-intent transfer, not a locked
   read-modify-write; [operand2 = 1] marks a store-class single-writer
   update. *)
let cost_op_of (op : Arch.memop) ~operand ~operand2 =
  match op with
  | Arch.Fai when operand = 0 || operand2 = 1 -> Arch.Store
  | _ -> op

let is_pfw_probe (op : Arch.memop) ~operand ~operand2 =
  op = Arch.Fai && operand = 0 && operand2 = 0

(* Does another core hold the line's exclusive-prefetch reservation
   against this probe? *)
let foreign_reservation ls b ~core op ~operand ~operand2 =
  is_pfw_probe op ~operand ~operand2
  && ls.(b + f_pfw) >= 0
  && ls.(b + f_pfw) <> core

(* Cycles a [Store] retires in when it drains through the store buffer
   instead of stalling the thread (the transfer itself still runs in
   the background: transition, invalidations, occupancy). *)
let store_buffer_retire = 12


(* What the next probe of this spin would cost on the line at [b],
   whose view [v] is (a foreign-reservation probe is a directed read,
   costed as a load).  Shared between [access], [try_park_in] (the
   parked poll grid must charge the same per-probe cost the literal
   loop would) and [wake_disturbed] (a parked waiter whose probe cost
   changed must replay for real to stay on the polled schedule). *)
let probe_cost t v b ~core (op : Arch.memop) ~operand ~operand2 =
  let cost_op =
    if foreign_reservation t.ls b ~core op ~operand ~operand2 then Arch.Load
    else cost_op_of op ~operand ~operand2
  in
  Cost_model.op_latency t.platform.Platform.topo cost_op ~requester:core v

(* Protocol state transition after [core] performs [op] on the line at
   [b].  MOESI (Opteron) keeps a dirty line in the previous owner's
   cache in Owned state when another core loads it; the MESI variants
   downgrade both copies to Shared.  Any store/atomic invalidates all
   other copies and leaves the line Modified at [core].  Returns the
   number of remote copies invalidated. *)
let transition t ls b core (op : Arch.memop) =
  let moesi =
    match t.platform.Platform.id with
    | Arch.Opteron | Arch.Opteron2 -> true
    | Arch.Xeon | Arch.Xeon2 | Arch.Niagara | Arch.Tilera -> false
  in
  match op with
  | Arch.Load ->
      if holds ls b core then 0
      else begin
        (* a Modified, Exclusive or Owned line always has its owner:
           [new_line] and [force_state] start a line Invalid with none,
           the store arm leaves it Modified at the writer, and the arms
           below keep it (test/test_protocol.ml checks this after every
           step of an exhaustive search) *)
        (match state_at ls b with
        | Arch.Modified when moesi ->
            (* owner keeps its dirty copy in Owned state *)
            set_state ls b c_owned;
            sharer_add ls b core
        | Arch.Modified | Arch.Exclusive ->
            let o = ls.(b + f_owner) in
            set_state ls b c_shared;
            ls.(b + f_owner) <- -1;
            sharer_add ls b core;
            sharer_add ls b o
        | Arch.Owned | Arch.Shared -> sharer_add ls b core
        | Arch.Invalid ->
            (* a fresh exclusive fill *)
            set_state ls b c_exclusive;
            ls.(b + f_owner) <- core;
            clear_sharers ls b);
        0
      end
  | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap ->
      let o = ls.(b + f_owner) in
      let killed =
        n_sharers ls b
        - (if sharer_mem ls b core then 1 else 0)
        + if o >= 0 && o <> core then 1 else 0
      in
      set_state ls b c_modified;
      ls.(b + f_owner) <- core;
      clear_sharers ls b;
      killed

(* Apply the operation's data semantics to word [a]; returns the result
   value delivered to the requester. *)
let apply_data t (a : addr) (op : Arch.memop) ~operand ~operand2 =
  match op with
  | Arch.Load -> t.values.(a)
  | Arch.Store ->
      t.values.(a) <- operand;
      0
  | Arch.Cas ->
      if t.values.(a) = operand then begin
        t.values.(a) <- operand2;
        1
      end
      else 0
  | Arch.Fai ->
      (* fetch-and-add: [operand] is the increment; 0 turns it into an
         atomic read that still acquires the line exclusively (the
         building block of the prefetchw-style probes) *)
      let old = t.values.(a) in
      t.values.(a) <- old + operand;
      old
  | Arch.Tas ->
      let old = t.values.(a) in
      t.values.(a) <- 1;
      old
  | Arch.Swap ->
      let old = t.values.(a) in
      t.values.(a) <- operand;
      old

(* ---------------------------- parking ---------------------------- *)

(* Would a probe of [op] by [core] observing word [value] on the line at
   [b] be *inert* — a local cache hit whose transition and data update
   change nothing and whose result keeps the spin loop going?  Such a
   probe affects nothing but the prober's own schedule, so it can be
   elided and bulk-accounted later. *)
let probe_inert ls b ~value ~core (op : Arch.memop) ~operand ~operand2
    ~while_ =
  (match op with
  | Arch.Load -> value = while_
  | Arch.Tas -> while_ = 1 && value = 1
  | Arch.Cas -> while_ = 0 && value <> operand
  | Arch.Fai -> operand = 0 && value = while_
  | Arch.Swap -> value = operand && value = while_
  | Arch.Store -> false)
  &&
  match op with
  | Arch.Load -> holds ls b core
  | Arch.Store -> false
  | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap ->
      (* the transition must also be a no-op: already Modified at the
         prober with no sharer left to invalidate — or a prefetchw
         probe under another waiter's reservation, which degrades to a
         directed read that changes neither state nor value *)
      (ls.(b + f_state) land state_mask = c_modified
       && ls.(b + f_owner) = core
       && no_sharers ls b)
      || foreign_reservation ls b ~core op ~operand ~operand2

(* Service latency of a probe of [op] by [core] on word [a] if it would
   be inert right now (see [probe_inert]), else -1. *)
let inert_hit t ~core (op : Arch.memop) (a : addr) ~operand ~operand2 ~while_ =
  let li = line_id t a in
  if
    probe_inert t.ls (li * lw) ~value:t.values.(a) ~core op ~operand ~operand2
      ~while_
  then probe_cost t (view_of_line t li) (li * lw) ~core op ~operand ~operand2
  else -1

(* Park a spinner whose next probe issues at [now + poll] and would be
   inert, at the tail of its line's wait list.  It recomputes the probe
   cost rather than take it as a twelfth argument: a new arity above 11
   adds [caml_curryN]/[caml_applyN] code to [caml_startup], which the
   linker places first, and shifts the alignment of everything after
   it, the perf harness's host-pace kernel included. *)
let park t ~core ~now (op : Arch.memop) (a : addr) ~operand ~operand2 ~while_
    ~poll ~tie ~replay =
  let li = line_id t a in
  let hit =
    probe_cost t (view_of_line t li) (li * lw) ~core op ~operand ~operand2
  in
  let w =
    {
      w_core = core;
      w_addr = a;
      w_op = op;
      w_operand = operand;
      w_operand2 = operand2;
      w_while = while_;
      w_poll = poll;
      w_hit = hit;
      w_local =
        not (foreign_reservation t.ls (li * lw) ~core op ~operand ~operand2);
      w_parked = now;
      w_next = now + poll;
      w_tie = tie;
      w_replay = replay;
      w_link = no_waiter;
    }
  in
  let last = t.wqs.(li) in
  if last == no_waiter then w.w_link <- w
  else begin
    w.w_link <- last.w_link;
    last.w_link <- w
  end;
  t.wqs.(li) <- w;
  w

(* Park a spinner whose next probe (issuing at [now + poll]) would be
   inert.  Returns [false] — and parks nothing — when the probe must
   run for real.  [replay] receives the issue time of the first
   non-elided probe once a real access disturbs the line. *)
let try_park_in t ~core ~now (op : Arch.memop) (a : addr) ~operand
    ~operand2 ~while_ ~poll ~replay : bool =
  probe_inert t.ls (line_id t a * lw) ~value:t.values.(a) ~core op ~operand
    ~operand2 ~while_
  && begin
       ignore
         (park t ~core ~now op a ~operand ~operand2 ~while_ ~poll ~tie:no_tie
            ~replay);
       true
     end

let waiter_count t a =
  let last = t.wqs.(line_id t a) in
  if last == no_waiter then 0
  else begin
    let n = ref 1 and w = ref last.w_link in
    while !w != last do
      incr n;
      w := !w.w_link
    done;
    !n
  end

(* Account [k] elided probes of [w] and move its grid past them. *)
let[@inline] book_elided t w k =
  Stats.record_elided t.stats w.w_op ~count:k ~latency:w.w_hit ~local:w.w_local;
  (match t.trace with
  | Some tr -> Trace.note_elided tr ~count:k ~cycles:(k * w.w_hit)
  | None -> ());
  w.w_next <- w.w_next + (k * (w.w_hit + w.w_poll))

(* Account [w]'s elided probes issuing strictly before [upto]. *)
let settle_waiter t w ~upto =
  if w.w_next < upto then
    book_elided t w (1 + ((upto - 1 - w.w_next) / (w.w_hit + w.w_poll)))

(* Phase 1, before the access mutates the line: account every elided
   probe that would have issued before the access under the state the
   line held since the last real access — those strictly before [now],
   plus one issuing at [now] when [w_tie] says it ran first. *)
let settle_elided t last ~now =
  let w = ref last and go = ref true in
  while !go do
    let w' = !w.w_link in
    if w'.w_next < now then
      book_elided t w' (1 + ((now - 1 - w'.w_next) / (w'.w_hit + w'.w_poll)));
    if w'.w_next = now && w'.w_tie now then book_elided t w' 1;
    w := w';
    go := w' != last
  done

(* Remove [w] from its line's wait list and charge the waiter-depth
   gauge up to [at].  No-op when [w] is not parked. *)
let unpark t w ~at =
  let li = line_id t w.w_addr in
  let last = t.wqs.(li) in
  if last != no_waiter then begin
    (* find [w]'s predecessor on the circle *)
    let prev = ref last and found = ref false and go = ref true in
    while !go do
      let c = !prev.w_link in
      if c == w then begin
        found := true;
        go := false
      end
      else if c == last then go := false
      else prev := c
    done;
    if !found then begin
      if w.w_link == w then t.wqs.(li) <- no_waiter
      else begin
        !prev.w_link <- w.w_link;
        if last == w then t.wqs.(li) <- !prev
      end;
      w.w_link <- no_waiter;
      match t.macc with
      | Some m ->
          Metrics.span m ~kind:Metrics.k_lock_waiters ~id:li ~t0:w.w_parked
            ~t1:at ~weight:1
      | None -> ()
    end
  end

(* Phase 2, after the mutation: wake every waiter whose next probe is
   no longer inert — or whose probe cost changed (e.g. a parked
   reservation holder that lost the line and is now a foreign-reader:
   its poll grid must switch to the directed-read latency, so it
   replays one probe for real and re-parks).  [w_next] is now the first
   grid point the access did not settle; a probe landing exactly on the
   access time observes the post-access state unless [w_tie] placed it
   first.  Wake order is park order, so same-time replays are
   deterministic.  A waiter parked on
   one word of a packed line is revalidated by an access to *any* word
   of the line: its own value may be untouched (the probe stays inert
   and it stays parked), but the line state the probe relies on may
   have changed under it — false sharing hits parked spinners too.
   The walk mutates no line state, so one view serves every waiter's
   probe cost. *)
let wake_disturbed t ~line:li last =
  let ls = t.ls and b = li * lw in
  let v = view_of_line t li in
  (* unlink the woken in place, chaining them through [w_link];
     [tail] tracks the circle's last waiter as they go *)
  let woken = ref no_waiter and woken_tail = ref no_waiter in
  let tail = ref last and prev = ref last and go = ref true in
  while !go do
    let w = !prev.w_link in
    go := w != last;
    if
      probe_inert ls b ~value:t.values.(w.w_addr) ~core:w.w_core w.w_op
        ~operand:w.w_operand ~operand2:w.w_operand2 ~while_:w.w_while
      && probe_cost t v b ~core:w.w_core w.w_op ~operand:w.w_operand
           ~operand2:w.w_operand2
         = w.w_hit
    then prev := w
    else begin
      if w.w_link == w then tail := no_waiter
      else begin
        !prev.w_link <- w.w_link;
        if !tail == w then tail := !prev
      end;
      w.w_link <- no_waiter;
      if !woken == no_waiter then woken := w else !woken_tail.w_link <- w;
      woken_tail := w
    end
  done;
  if !tail != last then t.wqs.(li) <- !tail;
  let w = ref !woken in
  while !w != no_waiter do
    let w' = !w in
    w := w'.w_link;
    w'.w_link <- no_waiter;
    (* waiter-depth gauge, charged at wake: the whole parked span
       is known only now *)
    (match t.macc with
    | Some m ->
        Metrics.span m ~kind:Metrics.k_lock_waiters ~id:li ~t0:w'.w_parked
          ~t1:w'.w_next ~weight:1
    | None -> ());
    w'.w_replay w'.w_next
  done

(* Does [access_lat_in]'s short path serve this access?  A load by a
   core holding the line, or a store or atomic by the owner of a
   Modified or Exclusive line: a local hit that queues behind nothing
   and changes no other core's copy.  Such a line has no sharers, so
   the transition invalidates nothing and at most relabels Exclusive as
   Modified; and its prefetch reservation is -1 or the owner, so no
   foreign reservation turns a prefetchw probe into a directed read
   (test/test_protocol.ml checks both after every step of an
   exhaustive search). *)
let[@inline] short_hit ls b core (op : Arch.memop) =
  match op with
  | Arch.Load -> holds ls b core
  | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap ->
      ls.(b + f_owner) = core
      &&
      let s = ls.(b + f_state) land state_mask in
      s = c_modified || s = c_exclusive

(* Sharer gauge: close the span since line [li]'s last sample at
   [upto], weighted by the line's current population of copies. *)
let[@inline] sample_sharers t m ls b li ~upto =
  if upto > t.msince.(li) then begin
    Metrics.span m ~kind:Metrics.k_line_sharers ~id:li ~t0:t.msince.(li)
      ~t1:upto
      ~weight:(n_sharers ls b + if ls.(b + f_owner) >= 0 then 1 else 0);
    t.msince.(li) <- upto
  end

(* Perform [op] on [a] from [core] at virtual time [now]; returns
   (completion latency in cycles, result value).  For [Cas], [operand]
   is the expected value and [operand2] the desired one ([fetch]
   changes its result from the 1/0 success flag to the observed
   pre-operation value); for [Store] and [Swap], [operand] is the value
   written ([operand2 = 1] posts the store through the store buffer:
   the thread pays only the retire cost while the transfer completes in
   the background).  A prefetchw probe ([Fai], operand 0) either takes
   the line exclusively and reserves it, or — under another core's
   reservation — degrades to a directed read snoop.  The operands are
   required labels: optional ones would box a [Some] per call on the
   engine's per-operation path (the [access_lat] wrapper offers them
   optional for casual callers).

   A local hit ([short_hit]) on a line no spinner is parked on takes a
   short path, metrics on or off: it queues behind nothing, crosses no
   resource and moves no other core's copy, so it skips the queueing,
   the resource path, the transition and the wake walk, and does
   exactly what the general path does for it.  Every path fills the
   cost-model view at most once, before anything mutates the line, and
   reads the latency, the resource path and the trace's distance class
   off that one view. *)
let access_lat_in t ~core ~now (op : Arch.memop) (a : addr)
    ~operand ~operand2 ~fetch : int =
  let topo = t.platform.Platform.topo in
  Topology.check topo core;
  let li = line_id t a in
  let ls = t.ls and b = li * lw in
  if t.wqs.(li) == no_waiter && short_hit ls b core op then begin
    (match t.macc with
    | Some m -> sample_sharers t m ls b li ~upto:now
    | None -> ());
    let latency =
      if op = Arch.Load then begin
        (* [Cost_model.op_latency]'s answer for a load by a holder,
           without filling the view *)
        Stats.record_local_load t.stats ~latency:t.hit_lat;
        t.last_result <- t.values.(a);
        t.hit_lat
      end
      else begin
        let service =
          Cost_model.op_latency topo (cost_op_of op ~operand ~operand2)
            ~requester:core (view_of_line t li)
        in
        (* the transition and the [llc_dirty] update: the write leaves
           the line Modified at [core], in the LLC too when posted *)
        let posted = op = Arch.Store && operand2 = 1 in
        ls.(b + f_state) <-
          (if posted then c_modified lor llc_bit else c_modified);
        let observed = t.values.(a) in
        let result = apply_data t a op ~operand ~operand2 in
        t.last_result <- (if fetch && op = Arch.Cas then observed else result);
        let latency =
          if posted then Int.min service store_buffer_retire else service
        in
        Stats.record t.stats op ~latency ~queued:0 ~rqueued:0 ~local:true
          ~invalidated:0;
        latency
      end
    in
    ls.(b + f_pfw) <-
      (if is_pfw_probe op ~operand ~operand2 then core else -1);
    if ls.(b + f_cas) = core then ls.(b + f_cas) <- -1;
    (match t.trace with
    | Some tr -> Trace.note_local tr ~cycles:latency
    | None -> ());
    latency
  end
  else if foreign_reservation ls b ~core op ~operand ~operand2 then begin
    (* Directed read under another waiter's exclusive-prefetch
       reservation: a non-binding snoop of the current copy that rides
       the line's data-return path — no transition, no occupancy, no
       queueing — so concurrent prefetchw pollers neither steal the
       reservation nor serialize on the line (section 5.3's directed
       handoff).  Nothing mutates, so parked waiters are untouched. *)
    let v = view_of_line t li in
    let service = Cost_model.op_latency topo Arch.Load ~requester:core v in
    Stats.record t.stats op ~latency:service ~queued:0 ~rqueued:0
      ~local:false ~invalidated:0;
    (match t.trace with
    | Some tr ->
        let st = state_at ls b in
        Trace.xfer tr ~ts:now ~tid:(Trace.cur_tid tr) ~addr:a ~lat:service
          ~service ~queued:0 ~rq:0
          (Trace.xfer_head ~core ~op ~pre:st ~post:st
             ~dist:(Cost_model.source_class topo ~requester:core v)
             ~rq_dir:false)
    | None -> ());
    t.last_result <- t.values.(a);
    service
  end
  else begin
    (let last = t.wqs.(li) in
     if last != no_waiter then settle_elided t last ~now);
    let is_pfw = is_pfw_probe op ~operand ~operand2 in
    let posted = op = Arch.Store && operand2 = 1 in
    let cost_op = cost_op_of op ~operand ~operand2 in
    let local = is_local_hit ls b core op in
    (* a favored CAS retry's request is still posted at the line from
       the attempt it just lost: it wins the next grant without
       re-queueing (pending-request arbitration) *)
    let favored = op = Arch.Cas && ls.(b + f_cas) = core && not local in
    (* an exclusive-prefetch probe rides the in-flight transfer's data
       return instead of queueing behind its serialized phase *)
    let bypass = local || is_pfw || favored in
    let busy_until = ls.(b + f_busy) in
    let start_line = if bypass then now else Int.max now busy_until in
    (* the line in its pre-access state: the source and sharer set the
       request actually hits *)
    let v = view_of_line t li in
    let service = Cost_model.op_latency topo cost_op ~requester:core v in
    (* the interconnect resources this transfer crosses: queue behind
       them (unless bypassing) and hold them for the transfer's service
       below *)
    let n_nodes = topo.Topology.n_nodes in
    let npath =
      if local then 0 else Cost_model.fill_path topo ~requester:core v t.path
    in
    (* the resource that delayed this transfer the longest (the argmax
       of the loop below): the one the resource-queued wait is
       attributed to, telemetry- and trace-side *)
    let qres = ref (-1) in
    let start =
      if bypass then now
      else begin
        let s = ref start_line in
        for i = 0 to npath - 1 do
          let busy = t.rbusy.(t.path.(i)) in
          if busy > !s then begin
            s := busy;
            qres := t.path.(i)
          end
        done;
        !s
      end
    in
    let queued = start - now in
    let rqueued = start - start_line in
    let pre_state = state_at ls b in
    (* trace-only distance class: to the data source when a cached copy
       exists, to the line's home otherwise *)
    let tr_dist =
      match t.trace with
      | Some _ when not local ->
          Cost_model.source_class topo ~requester:core v
      | _ -> Arch.Same_core
    in
    (* telemetry (time-free probes: nothing below reads them back).
       Resource-queued wait is charged to the argmax resource over its
       wait span, gated exactly like [Stats.record]'s [rqueued]; the
       sharer gauge closes the span since the line's last sample under
       the pre-transition population. *)
    (match t.macc with
    | Some m ->
        if rqueued > 0 && not posted then begin
          let r = !qres in
          let kind, id =
            if r < n_nodes then (Metrics.k_dir_queued, r)
            else (Metrics.k_link_queued, r - n_nodes)
          in
          Metrics.span m ~kind ~id ~t0:start_line ~t1:start ~weight:1
        end;
        sample_sharers t m ls b li ~upto:start
    | None -> ());
    if not local then begin
      let nb =
        start
        + Cost_model.occupancy topo cost_op ~state:pre_state ~latency:service
      in
      (match t.macc with
      | Some m when nb > busy_until ->
          Metrics.span m ~kind:Metrics.k_line_occ ~id:li
            ~t0:(Int.max start busy_until) ~t1:nb ~weight:1
      | _ -> ());
      ls.(b + f_busy) <- Int.max busy_until nb;
      for i = 0 to npath - 1 do
        let r = t.path.(i) in
        let held =
          start + Cost_model.resource_hold topo cost_op ~latency:service r
        in
        let prev = t.rbusy.(r) in
        if held > prev then begin
          (match t.macc with
          | Some m ->
              let kind, id =
                if r < n_nodes then (Metrics.k_dir_busy, r)
                else (Metrics.k_link_busy, r - n_nodes)
              in
              Metrics.span m ~kind ~id ~t0:(Int.max start prev) ~t1:held
                ~weight:1
          | None -> ());
          t.rbusy.(r) <- held
        end
      done
    end;
    let invalidated = transition t ls b core op in
    let observed = t.values.(a) in
    let result = apply_data t a op ~operand ~operand2 in
    let result = if fetch && op = Arch.Cas then observed else result in
    ls.(b + f_pfw) <- (if is_pfw then core else -1);
    (* pending-request arbitration: this access satisfies any request
       [core] had posted; a CAS that just lost (non-locally) posts its
       requester for the next grant.  The first posted loser keeps the
       slot until consumed — its request is already sitting in the
       line's MSHR, so later losers queue behind it. *)
    if ls.(b + f_cas) = core then ls.(b + f_cas) <- -1;
    if op = Arch.Cas && observed <> operand && not local && ls.(b + f_cas) < 0
    then ls.(b + f_cas) <- core;
    (* store-buffer writes drain through the inclusive LLC; any other
       write leaves the only valid data in the owner's cache *)
    (match op with
    | Arch.Store -> set_llc_dirty ls b posted
    | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> set_llc_dirty ls b false
    | Arch.Load -> ());
    let latency =
      if posted then Int.min service store_buffer_retire else queued + service
    in
    Stats.record t.stats op ~latency
      ~queued:(if posted then 0 else queued)
      ~rqueued:(if posted then 0 else rqueued)
      ~local ~invalidated;
    (match t.trace with
    | Some tr ->
        if local then Trace.note_local tr ~cycles:latency
        else
          Trace.xfer tr ~ts:now ~tid:(Trace.cur_tid tr) ~addr:a ~lat:latency
            ~service
            ~queued:(if posted then 0 else queued)
            ~rq:(if posted then 0 else rqueued)
            (Trace.xfer_head ~core ~op ~pre:pre_state ~post:(state_at ls b)
               ~dist:tr_dist ~rq_dir:(!qres >= 0 && !qres < n_nodes))
    | None -> ());
    (let last = t.wqs.(li) in
     if last != no_waiter then wake_disturbed t ~line:li last);
    t.last_result <- result;
    latency
  end

let access_lat ?(operand = 0) ?(operand2 = 0) ?(fetch = false) t ~core ~now op
    a =
  access_lat_in t ~core ~now op a ~operand ~operand2 ~fetch

let last_result t = t.last_result

let access ?operand ?operand2 ?fetch t ~core ~now (op : Arch.memop) (a : addr)
    : int * int =
  let latency = access_lat ?operand ?operand2 ?fetch t ~core ~now op a in
  (latency, last_result t)

(* Expected latency of [op] issued by [core] right now, without doing
   it (tests). *)
let probe_latency t ~core (op : Arch.memop) (a : addr) : int =
  Cost_model.op_latency t.platform.Platform.topo op ~requester:core
    (view_of_line t (line_id t a))

(* Time resource [r] (a [Cost_model] resource id) is held until
   (tests/metrics). *)
let resource_busy t r = t.rbusy.(r)

(* Drop all interconnect-resource occupancy (benchmark setup, mirrors
   [reset_busy] for lines). *)
let reset_resources t = Array.fill t.rbusy 0 (Array.length t.rbusy) 0

(* Test/bench helper: drive a line into a wanted state via real protocol
   transitions, like the real ccbench does ("brings the cache line in
   the desired state and then accesses it").  [holder] is the core that
   ends up holding the line. *)
let force_state t ~holder ?(second = -1) (st : Arch.cstate) (a : addr) =
  let second =
    if second >= 0 then second
    else (holder + 1) mod t.platform.Platform.topo.Topology.n_cores
  in
  (* the holder's second load would keep the line Exclusive, and the
     Shared relabel below would leave an owner with no sharers *)
  if second = holder then invalid_arg "Memory.force_state: second = holder";
  let ls = t.ls and b = line_id t a * lw in
  (* wipe: back to invalid, [llc_dirty] clear *)
  ls.(b + f_state) <- c_invalid;
  ls.(b + f_owner) <- -1;
  clear_sharers ls b;
  ls.(b + f_busy) <- 0;
  ls.(b + f_pfw) <- -1;
  ls.(b + f_cas) <- -1;
  reset_resources t;
  (match st with
  | Arch.Invalid -> ()
  | Arch.Exclusive ->
      ignore (access t ~core:holder ~now:0 Arch.Load a)
  | Arch.Modified ->
      ignore (access t ~core:holder ~now:0 Arch.Store a ~operand:t.values.(a))
  | Arch.Shared ->
      ignore (access t ~core:holder ~now:0 Arch.Load a);
      ignore (access t ~core:second ~now:0 Arch.Load a);
      set_state ls b c_shared
  | Arch.Owned ->
      (* dirty at holder, then loaded by another core (MOESI only) *)
      ignore (access t ~core:holder ~now:0 Arch.Store a ~operand:t.values.(a));
      ignore (access t ~core:second ~now:0 Arch.Load a);
      (match t.platform.Platform.id with
      | Arch.Opteron | Arch.Opteron2 -> ()
      | _ -> invalid_arg "Memory.force_state: Owned requires MOESI");
      ls.(b + f_busy) <- 0);
  reset_resources t

let reset_busy t a =
  t.ls.(line_id t a * lw + f_busy) <- 0;
  reset_resources t

(* Last in the file, so that it moves none of the access paths' code. *)
let release_pool () = Domain.DLS.get pool_key := []
