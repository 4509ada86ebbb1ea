(* A simulated coherent memory: the machine-wide state of every cache
   line, the protocol transitions applied by loads/stores/atomics, and
   the virtual-time cost of each access.

   Addresses are *word*-granular; coherence is *line*-granular.  A
   cache line holds up to [Topology.line_words] words: its protocol
   state, occupancy, parked waiters, conflict stamps and PDES residency
   all belong to the line, while each word keeps its own value.  The
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
   [try_park]): a thread whose spin loop has reached a steady state —
   every probe a local cache hit that changes nothing — is suspended
   here instead of burning one simulation event per probe.  Any real
   access to the line revalidates the parked waiters: probes that the
   poll loop would have issued before the access are bulk-accounted,
   and waiters whose next probe would no longer be inert are woken to
   replay it for real, on the exact virtual-time grid the poll loop
   would have used.  Waiters park on the line but spin on their own
   word, so a real access to a *different* word of a packed line
   disturbs them exactly like the false sharing it models.

   For sharded (PDES) execution the mutable per-access scratch state —
   the cost-model view, the [last_result] out-parameter and the running
   [Stats.t] — lives in *slots*, one per shard, so concurrent shards
   never race on it; lines themselves are partitioned by a residency
   tag and cross-shard accesses are deferred by the engine (see
   [Sim]).  Interconnect resources are not partitioned by residency,
   so under sharded execution each is owned by the shard of its
   (lowest) node and any in-window access whose path crosses a foreign
   shard's resource aborts to the serial path; resource busy-times are
   additionally stamped like lines so coordinator-run accesses detect
   out-of-order use.  Serial execution uses slot 0 throughout and pays
   none of this. *)

open Ssync_platform
module Trace = Ssync_trace.Trace
module Metrics = Ssync_metrics.Metrics

type addr = int

type line = {
  mutable state : Arch.cstate;
  mutable owner : int;          (* core holding Modified/Owned/Exclusive,
                                   -1 = none *)
  sharers : Coreset.t;          (* cores holding Shared copies *)
  mutable home : int;           (* home node (directory / home tile / memory);
                                   mutable only so disposed memories can
                                   recycle line records in place *)
  mutable busy_until : int;     (* virtual time the line is occupied until *)
  mutable pfw_owner : int;
      (* core holding an exclusive-prefetch reservation (-1 = none;
         section 5.3):
         set by a prefetchw probe, cleared by any other real access.
         While a foreign reservation holds, other prefetchw probes
         degrade to directed read snoops that steal nothing. *)
  mutable cas_pending : int;
      (* core whose CAS just lost on this line (-1 = none): its request
         stays posted at the line and wins the next grant, so its retry
         skips the queue instead of observing a value one full transfer
         stale (hardware pending-request arbitration, the fix for
         CAS-based FAI over-degrading in Figure 4).  Replaced by later
         losers; consumed by the pending core's next access. *)
  mutable llc_dirty : bool;
      (* the last write drained through the store buffer into the
         inclusive LLC (posted store): a same-die fetch of this
         Modified line is an LLC hit, not an owner round trip (Xeon) *)
  mutable waiters : waiter list; (* parked spinners, FIFO *)
}
(* Sharded-execution bookkeeping (residency tags, conflict stamps,
   peek generations) lives in side arrays on [t], not in the line
   record: serial runs never touch it, and growing every line by four
   words measurably hurts the serial hot path's cache footprint. *)

(* A parked spinner: the spin loop [probe; while result = w_while:
   pause w_poll; probe] whose probes are currently inert.  [w_next] is
   the virtual time its next probe would issue; successive probes sit
   on the grid [w_next + i * w_step] (probe latency + poll pause).
   [w_replay] hands the wake time back to the engine, which re-issues
   the probe for real. *)
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
  w_step : int;                 (* w_hit + w_poll *)
  w_parked : int;               (* virtual time the spinner parked (waiter-
                                   depth telemetry, charged at wake) *)
  mutable w_next : int;
  w_replay : int -> unit;
}

(* Per-shard mutable scratch: reused cost-model view, the
   [last_result] out-parameter, the resource-path scratch and this
   shard's share of the access statistics.  Serial code uses slot 0; a
   sharded engine gives each shard its own slot and merges the stats at
   the end of the run. *)
type slot = {
  scratch : Cost_model.view;    (* reused for every op_latency call *)
  path : int array;             (* reused resource-path scratch *)
  mutable last_result : int;
      (* result value of the most recent [access_lat] — an out-parameter
         that spares the engine's hot path one tuple allocation per
         memory operation *)
  stats : Stats.t;
  mutable macc : Metrics.t option;
      (* this slot's metrics accumulator, a [Metrics.branch] of the
         domain sink cached at creation like [trace]: [None] when
         metrics are off, so the sampled hot path costs one option
         match.  Drained into the sink by [drain_metrics] when the run
         succeeds; aborted sharded attempts never drain, keeping the
         dump strategy-independent. *)
}

(* Undo-journal checkpoint for speculative replay ([Sim]): the engine
   checkpoints once at virtual time 0 (after workload setup, before any
   thread is spawned) and, when a sharded attempt aborts on a conflict,
   [restore]s and replays instead of rebuilding the whole job serially.
   The journal records the *pre-image* of every line and word first
   touched since the checkpoint (first-touch epochs in [jline_gen]/
   [jword_gen] keep it O(dirty set)); the small resource arrays and the
   slot-0 stats are snapshotted wholesale.  Lines/words allocated after
   the checkpoint are simply truncated away on restore — replays
   re-execute the same deterministic bodies, so they re-allocate the
   same ids. *)
type jline = {
  jl_li : int;
  jl_state : Arch.cstate;
  jl_owner : int;
  jl_sharers : Coreset.t;       (* private copy *)
  jl_busy : int;
  jl_pfw : int;
  jl_casp : int;
  jl_llc : bool;
  jl_stamp_t : int;
  jl_stamp_tid : int;
  jl_msince : int;              (* sharer-gauge sample time pre-image *)
}

type checkpoint = {
  c_n_lines : int;
  c_n_words : int;
  mutable c_jlines : jline list;        (* pre-images, newest first *)
  mutable c_jwords : (int * int) list;  (* (addr, pre-image value) *)
  c_rbusy : int array;
  c_rstamp_t : int array;
  c_rstamp_core : int array;
  c_rstamp_line : int array;
  c_stats : Stats.t;                    (* slot-0 stats at checkpoint *)
  c_macc : Metrics.t option;            (* slot-0 metrics at checkpoint *)
}

type t = {
  platform : Platform.t;
  mutable lines : line array;   (* indexed by line id *)
  mutable n_lines : int;
  mutable values : int array;   (* indexed by word address *)
  mutable word2line : int array; (* word address -> line id *)
  mutable n_words : int;
  (* per-line sharding tags, indexed by line id alongside [lines] *)
  mutable res : int array;      (* resident shard, -1 = unassigned/serial *)
  mutable stamp_t : int array;  (* latest access key on the line: time... *)
  mutable stamp_tid : int array; (* ...and the accessing thread *)
  mutable peek_gens : int array; (* window generation of the last in-window
                                    peek/poke (cost-free debug access) *)
  (* finite-bandwidth interconnect resources, indexed by resource id
     (home directories then links, see [Cost_model.fill_path]) *)
  rbusy : int array;            (* virtual time each resource is held until *)
  rstamp_t : int array;         (* sharded-run conflict stamps: time... *)
  rstamp_core : int array;      (* ...and core (resources are touched by at
                                   most one thread per core in a window) *)
  rstamp_line : int array;      (* ...and the line whose transfer last
                                   stamped it (-1 = none): lets a resource
                                   conflict name the lines to promote on
                                   speculative replay *)
  mutable sharding : bool;
      (* a sharded run is in progress on this memory: resource accesses
         must be ownership-checked and stamped (serial runs skip both) *)
  mutable slots : slot array;   (* slots.(0) always exists *)
  mutable frozen : bool;
      (* a sharded window is executing: structural mutation (alloc)
         must abort to the serial path instead of racing *)
  mutable gen : int;
      (* window generation, bumped by [freeze t true]; lines record the
         generation of their last in-window [peek]/[poke] so the
         coordinator can detect unstamped value reads it would race *)
  mutable serial_only : bool;
      (* a workload component declared state the memory model cannot
         see (e.g. a hardware message queue held in native OCaml data):
         the line stamps cannot order it, so sharded runs must abort *)
  mutable solo : bool;
      (* the current window runs on exactly one shard (solo fast path):
         no concurrent shard exists, so the resource *ownership* check
         is moot and skipped — the monotonic stamp check still runs,
         keeping conflict detection identical *)
  mutable ckpt : checkpoint option;
  mutable jepoch : int;
      (* journal epoch, bumped by [checkpoint] and [restore]; an entry
         of [jline_gen]/[jword_gen] equal to [jepoch] means the
         pre-image is already journaled this epoch *)
  mutable jline_gen : int array;  (* indexed by line id *)
  mutable jword_gen : int array;  (* indexed by word address *)
  mutable trace : Trace.t option;
      (* the domain's trace sink, cached at creation time so the
         untraced hot path pays exactly one option match per access.
         Cleared by [set_slots n > 1] ([Trace.allow_sharded]): worker
         domains must never touch the coordinator's ring *)
  strace : Trace.t option;
      (* the same sink, kept across [set_slots] for coordinator-context
         speculation-lifecycle events (checkpoint/restore) *)
  mutable msince : int array;
      (* per-line virtual time the sharer-count gauge last sampled,
         indexed alongside [lines]; [[||]] when metrics are off (side
         array, like the sharding tags, to protect the serial cache
         footprint) *)
}

exception Sharded_alloc
(* raised by [alloc] while [frozen]: the engine catches it, aborts the
   sharded attempt and re-runs serially *)

exception Sharded_violation of int list
(* raised by [peek]/[poke] from inside a sharded window when the line
   is resident on another shard, and by any access whose interconnect
   path crosses a foreign shard's resource (or uses one out of stamp
   order): neither can be deferred through the engine's residency
   routing, so the attempt aborts — the engine replays speculatively
   with the payload's lines promoted to coordinator-mediated access, or
   re-runs serially when the payload is empty (conflict not
   attributable to lines) *)

(* Which shard the calling domain is currently draining (-1 = none:
   serial execution, or the coordinator between windows).  Domain-local
   because shard drains run on worker domains. *)
let exec_sid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let set_exec_sid s = Domain.DLS.set exec_sid_key s
let exec_sid () = Domain.DLS.get exec_sid_key

let dummy_line =
  { state = Arch.Invalid; owner = -1; sharers = Coreset.create (); home = 0;
    busy_until = 0; pfw_owner = -1; cas_pending = -1; llc_dirty = false;
    waiters = [] }

let make_slot () =
  {
    scratch =
      { Cost_model.state = Arch.Invalid; owner = -1;
        sharers = Coreset.create (); home = 0; llc_dirty = false };
    path = Array.make Cost_model.max_path_len 0;
    last_result = 0;
    stats = Stats.create ();
    macc = None;
  }

(* Domain-local recycling pool.  A benchmark harness creates one memory
   per job and thousands of jobs per section; the line records and the
   line/word-indexed side arrays dominate each job's setup allocation
   (and the minor-GC promotion traffic that goes with it), so
   [dispose]d memories donate them to the next [create] on the same
   domain.  [new_line]/[new_word] initialise every recycled cell
   explicitly, so a pooled array needs no cleaning here.  Domain-local
   (no lock): job fan-out runs whole jobs per domain, and the engine's
   shard crew never allocates memories. *)
type recycled = {
  r_lines : line array;
  r_values : int array;
  r_word2line : int array;
  r_res : int array;
  r_stamp_t : int array;
  r_stamp_tid : int array;
  r_peek_gens : int array;
  r_jline_gen : int array;
  r_jword_gen : int array;
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
     disjoint grid segments; the sink's high-water mark only advances
     when a run drains, so an aborted sharded attempt's serial re-run
     lands on the identical epoch base *)
  (match metrics with Some m -> Metrics.new_epoch m | None -> ());
  let n_res = Cost_model.n_resources platform.Platform.topo in
  let pool = Domain.DLS.get pool_key in
  let lines, values, word2line, res, stamp_t, stamp_tid, peek_gens,
      jline_gen, jword_gen =
    match !pool with
    | r :: rest ->
        pool := rest;
        ( r.r_lines, r.r_values, r.r_word2line, r.r_res, r.r_stamp_t,
          r.r_stamp_tid, r.r_peek_gens, r.r_jline_gen, r.r_jword_gen )
    | [] ->
        ( Array.make 1024 dummy_line, Array.make 1024 0, Array.make 1024 0,
          Array.make 1024 (-1), Array.make 1024 (-1), Array.make 1024 (-1),
          Array.make 1024 (-1), Array.make 1024 0, Array.make 1024 0 )
  in
  let slot0 = make_slot () in
  slot0.macc <- Option.map Metrics.branch metrics;
  {
    platform;
    lines;
    n_lines = 0;
    values;
    word2line;
    n_words = 0;
    res;
    stamp_t;
    stamp_tid;
    peek_gens;
    rbusy = Array.make n_res 0;
    rstamp_t = Array.make n_res (-1);
    rstamp_core = Array.make n_res (-1);
    rstamp_line = Array.make n_res (-1);
    sharding = false;
    slots = [| slot0 |];
    frozen = false;
    gen = 0;
    serial_only = false;
    solo = false;
    ckpt = None;
    jepoch = 0;
    jline_gen;
    jword_gen;
    trace;
    strace = trace;
    msince =
      (match metrics with
      | None -> [||]
      | Some _ -> Array.make (Array.length lines) 0);
  }

(* Return the memory's recyclable arrays to the domain pool.  The
   caller promises no live simulation references [t] any more; [t]
   itself becomes unusable (word/line counts are zeroed so any stale
   access trips the bounds checks).  Waiter lists are cleared eagerly —
   parked-probe replay closures can retain an entire dead simulation. *)
let dispose t =
  for li = 0 to t.n_lines - 1 do
    t.lines.(li).waiters <- []
  done;
  t.ckpt <- None;
  t.n_lines <- 0;
  t.n_words <- 0;
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < pool_max then
    pool :=
      {
        r_lines = t.lines;
        r_values = t.values;
        r_word2line = t.word2line;
        r_res = t.res;
        r_stamp_t = t.stamp_t;
        r_stamp_tid = t.stamp_tid;
        r_peek_gens = t.peek_gens;
        r_jline_gen = t.jline_gen;
        r_jword_gen = t.jword_gen;
      }
      :: !pool

let require_serial t = t.serial_only <- true
let serial_required t = t.serial_only

let platform t = t.platform
let stats t = t.slots.(0).stats
let n_lines t = t.n_lines
let n_words t = t.n_words
let line_words t = t.platform.Platform.topo.Topology.line_words

(* ------------------------- sharding support ------------------------ *)

let slot t i = t.slots.(i)
let n_slots t = Array.length t.slots
let slot_metrics sl = sl.macc

(* Ensure [n] slots exist (fresh stats in slots >= 1 each call, so a
   sharded run's per-shard tallies start from zero). *)
let set_slots t n =
  let n = Int.max 1 n in
  let old = Array.length t.slots in
  if n <> old then begin
    let slots =
      Array.init n (fun i -> if i = 0 then t.slots.(0) else make_slot ())
    in
    t.slots <- slots
  end
  else
    for i = 1 to n - 1 do
      t.slots.(i) <- make_slot ()
    done;
  for i = 1 to n - 1 do
    t.slots.(i).macc <- Option.map Metrics.branch t.slots.(0).macc
  done;
  (* worker domains must never touch the coordinator's trace ring:
     under [Trace.allow_sharded] the per-access hooks go dark and only
     the coordinator-emitted speculation events remain ([strace]) *)
  if n > 1 then t.trace <- None

(* Fold every shard slot's stats into slot 0 and zero the shard slots:
   after a sharded run, [stats] reports the same merged totals a serial
   run accumulates directly.  The slot records themselves stay put, so
   an engine that cached them per shard can keep using them across
   runs. *)
let merge_slots t =
  let s0 = t.slots.(0).stats in
  for i = 1 to Array.length t.slots - 1 do
    Stats.add s0 t.slots.(i).stats;
    Stats.reset t.slots.(i).stats
  done

(* Fold every slot's metrics accumulator into the domain sink — called
   by the engine when a run completes (serial, or a sharded attempt
   that survived its conflict checks and merged).  Aborted attempts
   never drain, so the sink only ever holds samples from the surviving
   schedule — which PDES guarantees is the serial one — keeping the
   dump byte-identical at any shard count. *)
let drain_metrics t =
  match Metrics.current () with
  | None -> ()
  | Some sink ->
      Array.iter
        (fun sl ->
          match sl.macc with
          | Some m -> Metrics.merge ~into:sink m
          | None -> ())
        t.slots

let freeze t b =
  if b then t.gen <- t.gen + 1;
  t.frozen <- b

(* Append one line homed at node [home]; returns its line id.  Every
   per-line cell — the record and each side-array entry — is
   initialised explicitly: the arrays may be recycled from a disposed
   memory ([dispose]) or hold truncated-away state after a checkpoint
   [restore], so nothing may rely on allocation-time fills. *)
let new_line t ~home =
  if t.n_lines = Array.length t.lines then begin
    let cap = 2 * Array.length t.lines in
    let bigger = Array.make cap dummy_line in
    Array.blit t.lines 0 bigger 0 t.n_lines;
    t.lines <- bigger;
    let grow_tags src =
      let b = Array.make cap (-1) in
      Array.blit src 0 b 0 t.n_lines;
      b
    in
    t.res <- grow_tags t.res;
    t.stamp_t <- grow_tags t.stamp_t;
    t.stamp_tid <- grow_tags t.stamp_tid;
    t.peek_gens <- grow_tags t.peek_gens;
    t.jline_gen <- grow_tags t.jline_gen;
    if Array.length t.msince > 0 then t.msince <- grow_tags t.msince
  end;
  let li = t.n_lines in
  let l = t.lines.(li) in
  if l == dummy_line then
    t.lines.(li) <-
      { state = Arch.Invalid; owner = -1; sharers = Coreset.create (); home;
        busy_until = 0; pfw_owner = -1; cas_pending = -1; llc_dirty = false;
        waiters = [] }
  else begin
    (* recycled record: reset in place, sparing the allocation *)
    l.state <- Arch.Invalid;
    l.owner <- -1;
    Coreset.clear l.sharers;
    l.home <- home;
    l.busy_until <- 0;
    l.pfw_owner <- -1;
    l.cas_pending <- -1;
    l.llc_dirty <- false;
    l.waiters <- []
  end;
  t.res.(li) <- -1;
  t.stamp_t.(li) <- -1;
  t.stamp_tid.(li) <- -1;
  t.peek_gens.(li) <- -1;
  t.jline_gen.(li) <- 0;
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
    t.word2line <- grow t.word2line 0;
    t.jword_gen <- grow t.jword_gen 0
  end;
  let a = t.n_words in
  t.values.(a) <- value;
  t.word2line.(a) <- li;
  t.jword_gen.(a) <- 0;
  t.n_words <- a + 1;
  a

let alloc ?(home_core = 0) ?(value = 0) t : addr =
  if t.frozen then raise Sharded_alloc;
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
  if t.frozen then raise Sharded_alloc;
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

let line t a = t.lines.(line_id t a)

(* Do two addresses share a cache line? (tests/metrics) *)
let same_line t a b = line_id t a = line_id t b

(* Shard residency: every line belongs to one shard; only that shard's
   threads may touch it inside a window (the engine defers everything
   else to the inter-window coordinator, which may migrate the line to
   the requester). *)
(* Engine-internal callers pass addresses straight out of [alloc], so
   these rely on the array bounds check alone. *)
let residency t a = t.res.(t.word2line.(a))
let set_residency t a s = t.res.(t.word2line.(a)) <- s

(* Promotion entry point: tag a line (by id, as carried in conflict
   payloads) with an arbitrary residency — the engine uses a sentinel
   no shard matches, so every access to the line defers to the
   coordinator. *)
let set_line_residency t li s = t.res.(li) <- s
let line_residency t li = t.res.(li)

let set_solo t b = t.solo <- b

(* --------------- checkpoint / rollback (speculative replay) -------- *)

let journal_line_slow t (c : checkpoint) li =
  t.jline_gen.(li) <- t.jepoch;
  if li < c.c_n_lines then begin
    let l = t.lines.(li) in
    c.c_jlines <-
      {
        jl_li = li;
        jl_state = l.state;
        jl_owner = l.owner;
        jl_sharers = Coreset.copy l.sharers;
        jl_busy = l.busy_until;
        jl_pfw = l.pfw_owner;
        jl_casp = l.cas_pending;
        jl_llc = l.llc_dirty;
        jl_stamp_t = t.stamp_t.(li);
        jl_stamp_tid = t.stamp_tid.(li);
        jl_msince = (if Array.length t.msince = 0 then 0 else t.msince.(li));
      }
      :: c.c_jlines
  end
  (* lines allocated after the checkpoint need no pre-image: restore
     truncates them away *)

let[@inline] journal_line t li =
  match t.ckpt with
  | None -> ()
  | Some c -> if t.jline_gen.(li) <> t.jepoch then journal_line_slow t c li

let journal_word_slow t (c : checkpoint) a =
  t.jword_gen.(a) <- t.jepoch;
  if a < c.c_n_words then c.c_jwords <- (a, t.values.(a)) :: c.c_jwords

let[@inline] journal_word t a =
  match t.ckpt with
  | None -> ()
  | Some c -> if t.jword_gen.(a) <> t.jepoch then journal_word_slow t c a

(* Arm (or re-arm) the rollback point.  Precondition: no parked waiters
   — the engine checkpoints at virtual time 0, after workload setup and
   before any thread is spawned, so nothing is mid-spin and the
   replay's re-spawn rebuilds all queued work from scratch (which is
   also why the shard event queues need no snapshot: they are empty
   here and fully reconstructed by the replay). *)
let checkpoint t =
  for li = 0 to t.n_lines - 1 do
    if t.lines.(li).waiters <> [] then
      invalid_arg "Memory.checkpoint: parked waiters present"
  done;
  t.ckpt <-
    Some
      {
        c_n_lines = t.n_lines;
        c_n_words = t.n_words;
        c_jlines = [];
        c_jwords = [];
        c_rbusy = Array.copy t.rbusy;
        c_rstamp_t = Array.copy t.rstamp_t;
        c_rstamp_core = Array.copy t.rstamp_core;
        c_rstamp_line = Array.copy t.rstamp_line;
        c_stats = Stats.copy t.slots.(0).stats;
        c_macc = Option.map Metrics.copy t.slots.(0).macc;
      };
  t.jepoch <- t.jepoch + 1;
  match t.strace with
  | Some tr -> Trace.emit_end tr Trace.E_ckpt
  | None -> ()

(* Roll every observable back to the checkpoint: journaled pre-images
   for lines/words, wholesale blits for the (small) resource arrays and
   slot-0 stats, truncation for post-checkpoint allocations.  The
   checkpoint stays armed (journals emptied, epoch bumped), so a replay
   that conflicts again can restore again. *)
let restore t =
  match t.ckpt with
  | None -> invalid_arg "Memory.restore: no checkpoint"
  | Some c ->
      List.iter
        (fun j ->
          let l = t.lines.(j.jl_li) in
          l.state <- j.jl_state;
          l.owner <- j.jl_owner;
          Coreset.assign l.sharers j.jl_sharers;
          l.busy_until <- j.jl_busy;
          l.pfw_owner <- j.jl_pfw;
          l.cas_pending <- j.jl_casp;
          l.llc_dirty <- j.jl_llc;
          l.waiters <- [];
          t.stamp_t.(j.jl_li) <- j.jl_stamp_t;
          t.stamp_tid.(j.jl_li) <- j.jl_stamp_tid;
          if Array.length t.msince > 0 then t.msince.(j.jl_li) <- j.jl_msince)
        c.c_jlines;
      List.iter (fun (a, v) -> t.values.(a) <- v) c.c_jwords;
      c.c_jlines <- [];
      c.c_jwords <- [];
      (* drop post-checkpoint allocations; clear their waiter lists so
         truncated records don't retain dead replay closures *)
      for li = c.c_n_lines to t.n_lines - 1 do
        t.lines.(li).waiters <- []
      done;
      t.n_lines <- c.c_n_lines;
      t.n_words <- c.c_n_words;
      Array.blit c.c_rbusy 0 t.rbusy 0 (Array.length c.c_rbusy);
      Array.blit c.c_rstamp_t 0 t.rstamp_t 0 (Array.length c.c_rstamp_t);
      Array.blit c.c_rstamp_core 0 t.rstamp_core 0
        (Array.length c.c_rstamp_core);
      Array.blit c.c_rstamp_line 0 t.rstamp_line 0
        (Array.length c.c_rstamp_line);
      Stats.assign t.slots.(0).stats c.c_stats;
      (match (t.slots.(0).macc, c.c_macc) with
      | Some m, Some cm -> Metrics.assign m cm
      | _ -> ());
      for i = 1 to Array.length t.slots - 1 do
        Stats.reset t.slots.(i).stats;
        match (t.slots.(i).macc, t.slots.(0).macc) with
        | Some mi, Some m0 -> Metrics.rebase mi ~like:m0
        | _ -> ()
      done;
      Array.fill t.peek_gens 0 t.n_lines (-1);
      t.solo <- false;
      t.frozen <- false;
      t.jepoch <- t.jepoch + 1;
      (match t.strace with
      | Some tr -> Trace.emit_end tr Trace.E_restore
      | None -> ())

let has_checkpoint t = t.ckpt <> None

(* Assign residency for lines [from, n_lines) by their home node;
   returns the new high-water mark.  Called by the coordinator between
   windows, so lines allocated by deferred (coordinator-run) code get
   tagged before the next window starts. *)
let assign_residency t ~shard_of_node ~from =
  for li = from to t.n_lines - 1 do
    t.res.(li) <- shard_of_node t.lines.(li).home
  done;
  t.n_lines

(* Conflict check + stamp for sharded execution: an access with key
   [(time, tid)] is serial-order sound only if every access this line
   has already served has a key at most [(time, tid)] — same-time
   accesses by *different* threads are ambiguous (their serial order
   was insertion order, which sharded execution cannot reconstruct), so
   they conservatively fail.  Returns [false] on violation; the engine
   aborts the sharded attempt and re-runs serially.  Stamps are
   line-granular: two packed words on one line conflict exactly like
   one shared word. *)
let stamp t a ~time ~tid =
  let li = t.word2line.(a) in
  let st = t.stamp_t.(li) in
  if st > time || (st = time && t.stamp_tid.(li) <> tid) then false
  else begin
    (* journal before the write: the stamp is part of the line's
       rollback image, and this is the line's first touch on most
       access paths *)
    journal_line t li;
    t.stamp_t.(li) <- time;
    t.stamp_tid.(li) <- tid;
    true
  end

let clear_stamps t =
  Array.fill t.stamp_t 0 t.n_lines (-1);
  Array.fill t.stamp_tid 0 t.n_lines (-1);
  let nr = Array.length t.rstamp_t in
  Array.fill t.rstamp_t 0 nr (-1);
  Array.fill t.rstamp_core 0 nr (-1);
  Array.fill t.rstamp_line 0 nr (-1);
  (* a sharded run is starting: from here on, resource accesses must be
     ownership-checked and stamped.  The flag stays set for the memory's
     lifetime — an aborted attempt is re-run on a fresh serial memory
     ([Sim.serial_fallback]), never on this one. *)
  t.sharding <- true

(* ------------------------------------------------------------------ *)

(* Debug/test access that costs nothing and moves no state.  Simulated
   bodies use these for cost-free algorithmic reads (e.g. a queue
   lock's uncontended fast-path check), so under sharded execution they
   are guarded like real accesses: a cross-shard peek inside a window
   aborts ([Sharded_violation]), and a resident one marks the line's
   window generation so the coordinator refuses to touch the line in
   the same window ([peeked_this_window]) — a peek carries no (time,
   tid) key, so the ordinary stamp check cannot order it against
   deferred cross-shard work. *)
let guard_debug_access t li =
  if t.frozen then begin
    let s = Domain.DLS.get exec_sid_key in
    if s >= 0 then
      if t.res.(li) <> s then
        (* empty payload: a peek carries no ordering key, so promoting
           the line cannot legalise it — the engine must not retry
           speculatively on this conflict *)
        raise (Sharded_violation [])
      else t.peek_gens.(li) <- t.gen
  end

let peek t a =
  let li = line_id t a in
  guard_debug_access t li;
  t.values.(a)

let poke t a v =
  let li = line_id t a in
  guard_debug_access t li;
  journal_word t a;
  t.values.(a) <- v

(* Was the line peeked/poked during the current (just-finished) window?
   Checked by the coordinator before executing a deferred access on the
   line. *)
let peeked_this_window t a = t.peek_gens.(line_id t a) = t.gen

(* Refill the slot's scratch view from [l]; [sharers] aliases the
   line's set, which the cost model only reads. *)
let view_of_line (sl : slot) (l : line) : Cost_model.view =
  let v = sl.scratch in
  v.Cost_model.state <- l.state;
  v.Cost_model.owner <- l.owner;
  v.Cost_model.sharers <- l.sharers;
  v.Cost_model.home <- l.home;
  v.Cost_model.llc_dirty <- l.llc_dirty;
  v

let holds l core = l.owner = core || Coreset.mem l.sharers core

(* Is this access served entirely from the requester's own cache (no
   global transaction, no serialization)? *)
let is_local_hit (l : line) core (op : Arch.memop) =
  match op with
  | Arch.Load -> holds l core
  | Arch.Store -> l.owner = core
  | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> l.owner = core

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
let foreign_reservation (l : line) ~core op ~operand ~operand2 =
  is_pfw_probe op ~operand ~operand2
  && l.pfw_owner >= 0
  && l.pfw_owner <> core

(* Cycles a [Store] retires in when it drains through the store buffer
   instead of stalling the thread (the transfer itself still runs in
   the background: transition, invalidations, occupancy). *)
let store_buffer_retire = 12


(* What the next probe of this spin would cost (a foreign-reservation
   probe is a directed read, costed as a load).  Shared between
   [access], [try_park] (the parked poll grid must charge the same
   per-probe cost the literal loop would) and [wake_disturbed] (a parked
   waiter whose probe cost changed must replay for real to stay on the
   polled schedule). *)
let probe_cost t (sl : slot) (l : line) ~core (op : Arch.memop) ~operand
    ~operand2 =
  let cost_op =
    if foreign_reservation l ~core op ~operand ~operand2 then Arch.Load
    else cost_op_of op ~operand ~operand2
  in
  Cost_model.op_latency t.platform.Platform.topo cost_op ~requester:core
    (view_of_line sl l)

(* Protocol state transition after [core] performs [op].  MOESI
   (Opteron) keeps a dirty line in the previous owner's cache in Owned
   state when another core loads it; the MESI variants downgrade both
   copies to Shared.  Any store/atomic invalidates all other copies and
   leaves the line Modified at [core].  Returns the number of remote
   copies invalidated. *)
let transition t (l : line) core (op : Arch.memop) =
  let moesi =
    match t.platform.Platform.id with
    | Arch.Opteron | Arch.Opteron2 -> true
    | Arch.Xeon | Arch.Xeon2 | Arch.Niagara | Arch.Tilera -> false
  in
  match op with
  | Arch.Load ->
      if holds l core then 0
      else begin
        let o = l.owner in
        (match l.state with
        | Arch.Modified when moesi && o >= 0 ->
            (* owner keeps its dirty copy in Owned state *)
            l.state <- Arch.Owned;
            Coreset.add l.sharers core
        | (Arch.Modified | Arch.Exclusive) when o >= 0 ->
            l.state <- Arch.Shared;
            l.owner <- -1;
            Coreset.add l.sharers core;
            Coreset.add l.sharers o
        | Arch.Owned when o >= 0 -> Coreset.add l.sharers core
        | Arch.Shared | Arch.Forward -> Coreset.add l.sharers core
        | Arch.Invalid | Arch.Modified | Arch.Exclusive | Arch.Owned ->
            (* a fresh exclusive fill — or, for an ownerless
               Modified/Exclusive/Owned line (inconsistent), its repair *)
            l.state <- Arch.Exclusive;
            l.owner <- core;
            Coreset.clear l.sharers);
        0
      end
  | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap ->
      let killed =
        Coreset.cardinal l.sharers
        - (if Coreset.mem l.sharers core then 1 else 0)
        + if l.owner >= 0 && l.owner <> core then 1 else 0
      in
      l.state <- Arch.Modified;
      l.owner <- core;
      Coreset.clear l.sharers;
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

(* Would a probe of [op] by [core] observing word [value] on this line
   be *inert* — a local cache hit whose transition and data update
   change nothing and whose result keeps the spin loop going?  Such a
   probe affects nothing but the prober's own schedule, so it can be
   elided and bulk-accounted later. *)
let probe_inert (l : line) ~value ~core (op : Arch.memop) ~operand ~operand2
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
  | Arch.Load -> holds l core
  | Arch.Store -> false
  | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap ->
      (* the transition must also be a no-op: already Modified at the
         prober with no sharer left to invalidate — or a prefetchw
         probe under another waiter's reservation, which degrades to a
         directed read that changes neither state nor value *)
      (l.state = Arch.Modified && l.owner = core
       && Coreset.is_empty l.sharers)
      || foreign_reservation l ~core op ~operand ~operand2

(* Park a spinner whose next probe (issuing at [now + poll]) would be
   inert.  Returns [false] — and parks nothing — when the probe must
   run for real.  [replay] receives the issue time of the first
   non-elided probe once a real access disturbs the line. *)
let try_park_in t ~slot:sl ~core ~now (op : Arch.memop) (a : addr) ~operand
    ~operand2 ~while_ ~poll ~replay : bool =
  let li = line_id t a in
  let l = t.lines.(li) in
  if not (probe_inert l ~value:t.values.(a) ~core op ~operand ~operand2
            ~while_)
  then false
  else begin
    (* parking mutates the waiter list: journal so a rollback drops the
       parked spinner with the rest of the attempt *)
    journal_line t li;
    let foreign = foreign_reservation l ~core op ~operand ~operand2 in
    let hit = probe_cost t sl l ~core op ~operand ~operand2 in
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
        w_local = not foreign;
        w_step = hit + poll;
        w_parked = now;
        w_next = now + poll;
        w_replay = replay;
      }
    in
    l.waiters <- l.waiters @ [ w ];
    true
  end

let try_park t ~core ~now op a ~operand ~operand2 ~while_ ~poll ~replay =
  try_park_in t ~slot:t.slots.(0) ~core ~now op a ~operand ~operand2 ~while_
    ~poll ~replay

let waiter_count t a = List.length (line t a).waiters

let probe_would_elide t ~core (op : Arch.memop) (a : addr) ~operand ~operand2
    ~while_ =
  probe_inert (line t a) ~value:t.values.(a) ~core op ~operand ~operand2
    ~while_

(* Phase 1, before the access mutates the line: account every elided
   probe that would have issued strictly before [now] under the state
   the line held since the last real access. *)
let settle_elided t (sl : slot) (l : line) ~now =
  List.iter
    (fun w ->
      if w.w_next < now then begin
        let k = 1 + ((now - 1 - w.w_next) / w.w_step) in
        Stats.record_elided sl.stats w.w_op ~count:k ~latency:w.w_hit
          ~local:w.w_local;
        (match t.trace with
        | Some tr -> Trace.note_elided tr ~count:k ~cycles:(k * w.w_hit)
        | None -> ());
        w.w_next <- w.w_next + (k * w.w_step)
      end)
    l.waiters

(* Phase 2, after the mutation: wake every waiter whose next probe is
   no longer inert — or whose probe cost changed (e.g. a parked
   reservation holder that lost the line and is now a foreign-reader:
   its poll grid must switch to the directed-read latency, so it
   replays one probe for real and re-parks).  [w_next] is now the first
   grid point >= [now]; a probe landing exactly on the access time
   observes the post-access state (the access wins the tie).  Wake
   order is park order, so same-time replays are deterministic.  A
   waiter parked on one word of a packed line is revalidated by an
   access to *any* word of the line: its own value may be untouched
   (the probe stays inert and it stays parked), but the line state the
   probe relies on may have changed under it — false sharing hits
   parked spinners too. *)
let wake_disturbed t (sl : slot) ~line:li (l : line) =
  match l.waiters with
  | [] -> ()
  | ws ->
      let still, woken =
        List.partition
          (fun w ->
            probe_inert l ~value:t.values.(w.w_addr) ~core:w.w_core w.w_op
              ~operand:w.w_operand ~operand2:w.w_operand2 ~while_:w.w_while
            && probe_cost t sl l ~core:w.w_core w.w_op ~operand:w.w_operand
                 ~operand2:w.w_operand2
               = w.w_hit)
          ws
      in
      l.waiters <- still;
      List.iter
        (fun w ->
          (* waiter-depth gauge, charged at wake: the whole parked span
             is known only now, and an aborted attempt's charges vanish
             with the undrained slot accumulator *)
          (match sl.macc with
          | Some m ->
              Metrics.span m ~kind:Metrics.k_lock_waiters ~id:li ~t0:w.w_parked
                ~t1:w.w_next ~weight:1
          | None -> ());
          w.w_replay w.w_next)
        woken

(* Distance class of the transfer serving [core]'s request on [l] in
   its *pre-access* state: to the data source when a cached copy
   exists, to the line's home otherwise.  Trace-only; must run before
   [transition] mutates the line (and its aliased sharer set). *)
let dist_of t (sl : slot) ~core (l : line) : Arch.distance =
  Cost_model.source_class t.platform.Platform.topo ~requester:core
    (view_of_line sl l)

(* Sharded-execution guard for the resource path in [sl.path]:
   - inside a window, only the shard owning a resource (the shard of
     its lowest node, matching the engine's node-to-shard map) may
     touch it — one owner per window means the stamp and busy arrays
     are never raced;
   - any toucher (in-window or coordinator) must use resources in
     non-decreasing time order, same-time reuse by a different core
     being ambiguous exactly like line stamps.  Keys are cores, not
     tids: every sharded workload runs at most one thread per core, and
     the engine's line stamps (tid-keyed) already guard the lines
     themselves.
   Violations raise [Sharded_violation] carrying the implicated line
   ids — the line whose transfer tripped the guard plus the previous
   stamper's line — so the engine can roll back and replay with those
   lines promoted to coordinator-mediated access (or abort to the
   serial path), discarding the doomed attempt's partial mutations
   either way.  A solo window (exactly one shard active, see
   [set_solo]) skips the ownership check — there is no concurrent
   shard to race — but keeps the stamp monotonicity check, so
   conflict detection is unchanged. *)
let guard_resources t (sl : slot) ~core ~now ~line:li npath =
  let n_nodes = t.platform.Platform.topo.Topology.n_nodes in
  let nslots = Array.length t.slots in
  let sid = Domain.DLS.get exec_sid_key in
  let conflict r =
    let prev = t.rstamp_line.(r) in
    raise
      (Sharded_violation (if prev >= 0 && prev <> li then [ li; prev ]
                          else [ li ]))
  in
  for i = 0 to npath - 1 do
    let r = sl.path.(i) in
    if t.frozen && sid >= 0 && not t.solo then begin
      let owner_node = if r < n_nodes then r else (r - n_nodes) / n_nodes in
      if owner_node mod nslots <> sid then conflict r
    end;
    let st = t.rstamp_t.(r) in
    if st > now || (st = now && t.rstamp_core.(r) <> core) then conflict r;
    t.rstamp_t.(r) <- now;
    t.rstamp_core.(r) <- core;
    t.rstamp_line.(r) <- li
  done

(* Perform [op] on [a] from [core] at virtual time [now]; returns
   (completion latency in cycles, result value).  For [Cas], [operand]
   is the expected value and [operand2] the desired one ([fetch]
   changes its result from the 1/0 success flag to the observed
   pre-operation value); for [Store] and [Swap], [operand] is the value
   written ([operand2 = 1] posts the store through the store buffer:
   the thread pays only the retire cost while the transfer completes in
   the background).  A prefetchw probe ([Fai], operand 0) either takes
   the line exclusively and reserves it, or — under another core's
   reservation — degrades to a directed read snoop.  [slot] selects the
   shard's scratch/stats slot; serial callers use the [access_lat]
   wrapper on slot 0.  The operands are required labels: optional ones
   would box a [Some] per call on the engine's per-operation path. *)
let access_lat_in t ~slot:(sl : slot) ~core ~now (op : Arch.memop) (a : addr)
    ~operand ~operand2 ~fetch : int =
  let topo = t.platform.Platform.topo in
  Topology.check topo core;
  let li = line_id t a in
  let l = t.lines.(li) in
  if foreign_reservation l ~core op ~operand ~operand2 then begin
    (* Directed read under another waiter's exclusive-prefetch
       reservation: a non-binding snoop of the current copy that rides
       the line's data-return path — no transition, no occupancy, no
       queueing — so concurrent prefetchw pollers neither steal the
       reservation nor serialize on the line (section 5.3's directed
       handoff).  Nothing mutates, so parked waiters are untouched. *)
    let service =
      Cost_model.op_latency topo Arch.Load ~requester:core (view_of_line sl l)
    in
    Stats.record sl.stats op ~latency:service ~queued:0 ~rqueued:0
      ~local:false ~invalidated:0;
    (match t.trace with
    | Some tr ->
        Trace.emit tr ~ts:now
          (Trace.E_xfer
             { tid = Trace.cur_tid tr; core; op; addr = a; pre = l.state;
               post = l.state; dist = dist_of t sl ~core l; lat = service;
               service; queued = 0; rq = 0; rq_dir = false })
    | None -> ());
    sl.last_result <- t.values.(a);
    service
  end
  else begin
    (* rollback pre-images before any mutation below (the directed-read
       branch above mutates nothing but stats, which the checkpoint
       snapshots wholesale) *)
    journal_line t li;
    journal_word t a;
    (match l.waiters with [] -> () | _ -> settle_elided t sl l ~now);
    let is_pfw = is_pfw_probe op ~operand ~operand2 in
    let posted = op = Arch.Store && operand2 = 1 in
    let cost_op = cost_op_of op ~operand ~operand2 in
    let local = is_local_hit l core op in
    (* a favored CAS retry's request is still posted at the line from
       the attempt it just lost: it wins the next grant without
       re-queueing (pending-request arbitration) *)
    let favored = op = Arch.Cas && l.cas_pending = core && not local in
    (* an exclusive-prefetch probe rides the in-flight transfer's data
       return instead of queueing behind its serialized phase *)
    let bypass = local || is_pfw || favored in
    let start_line = if bypass then now else Int.max now l.busy_until in
    let service =
      Cost_model.op_latency topo cost_op ~requester:core (view_of_line sl l)
    in
    (* the interconnect resources this transfer crosses: queue behind
       them (unless bypassing) and hold them for the transfer's service
       below *)
    let n_nodes = topo.Topology.n_nodes in
    let npath =
      if local then 0
      else Cost_model.fill_path topo ~requester:core (view_of_line sl l)
          sl.path
    in
    if t.sharding && npath > 0 then
      guard_resources t sl ~core ~now ~line:li npath;
    (* the resource that delayed this transfer the longest (the argmax
       of the loop below): the one the resource-queued wait is
       attributed to, telemetry- and trace-side *)
    let qres = ref (-1) in
    let start =
      if bypass then now
      else begin
        let s = ref start_line in
        for i = 0 to npath - 1 do
          let b = t.rbusy.(sl.path.(i)) in
          if b > !s then begin
            s := b;
            qres := sl.path.(i)
          end
        done;
        !s
      end
    in
    let queued = start - now in
    let rqueued = start - start_line in
    let pre_state = l.state in
    (* pre-transition: the source/sharer set the request actually hit *)
    let tr_dist =
      match t.trace with
      | Some _ when not local -> dist_of t sl ~core l
      | _ -> Arch.Same_core
    in
    (* telemetry (time-free probes: nothing below reads them back).
       Resource-queued wait is charged to the argmax resource over its
       wait span, gated exactly like [Stats.record]'s [rqueued]; the
       sharer gauge closes the span since the line's last sample under
       the pre-transition population. *)
    (match sl.macc with
    | Some m ->
        if rqueued > 0 && not posted then begin
          let r = !qres in
          let kind, id =
            if r < n_nodes then (Metrics.k_dir_queued, r)
            else (Metrics.k_link_queued, r - n_nodes)
          in
          Metrics.span m ~kind ~id ~t0:start_line ~t1:start ~weight:1
        end;
        let pop =
          Coreset.cardinal l.sharers
          + if l.owner >= 0 then 1 else 0
        in
        if start > t.msince.(li) then begin
          Metrics.span m ~kind:Metrics.k_line_sharers ~id:li
            ~t0:t.msince.(li) ~t1:start ~weight:pop;
          t.msince.(li) <- start
        end
    | None -> ());
    if not local then begin
      let nb =
        start
        + Cost_model.occupancy topo cost_op ~state:pre_state ~latency:service
      in
      (match sl.macc with
      | Some m when nb > l.busy_until ->
          Metrics.span m ~kind:Metrics.k_line_occ ~id:li
            ~t0:(Int.max start l.busy_until) ~t1:nb ~weight:1
      | _ -> ());
      l.busy_until <- Int.max l.busy_until nb;
      for i = 0 to npath - 1 do
        let r = sl.path.(i) in
        let held =
          start + Cost_model.resource_hold topo cost_op ~latency:service r
        in
        let prev = t.rbusy.(r) in
        if held > prev then begin
          (match sl.macc with
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
    let invalidated = transition t l core op in
    let observed = t.values.(a) in
    let result = apply_data t a op ~operand ~operand2 in
    let result = if fetch && op = Arch.Cas then observed else result in
    l.pfw_owner <- (if is_pfw then core else -1);
    (* pending-request arbitration: this access satisfies any request
       [core] had posted; a CAS that just lost (non-locally) posts its
       requester for the next grant.  The first posted loser keeps the
       slot until consumed — its request is already sitting in the
       line's MSHR, so later losers queue behind it. *)
    if l.cas_pending = core then l.cas_pending <- -1;
    if op = Arch.Cas && observed <> operand && not local && l.cas_pending < 0
    then l.cas_pending <- core;
    (* store-buffer writes drain through the inclusive LLC; any other
       write leaves the only valid data in the owner's cache *)
    (match op with
    | Arch.Store -> l.llc_dirty <- posted
    | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> l.llc_dirty <- false
    | Arch.Load -> ());
    let latency =
      if posted then Int.min service store_buffer_retire else queued + service
    in
    Stats.record sl.stats op ~latency
      ~queued:(if posted then 0 else queued)
      ~rqueued:(if posted then 0 else rqueued)
      ~local ~invalidated;
    (match t.trace with
    | Some tr ->
        if local then Trace.note_local tr ~cycles:latency
        else
          Trace.emit tr ~ts:now
            (Trace.E_xfer
               { tid = Trace.cur_tid tr; core; op; addr = a; pre = pre_state;
                 post = l.state; dist = tr_dist; lat = latency; service;
                 queued = (if posted then 0 else queued);
                 rq = (if posted then 0 else rqueued);
                 rq_dir = (!qres >= 0 && !qres < n_nodes) })
    | None -> ());
    (match l.waiters with [] -> () | _ -> wake_disturbed t sl ~line:li l);
    sl.last_result <- result;
    latency
  end

let access_lat ?(operand = 0) ?(operand2 = 0) ?(fetch = false) t ~core ~now op
    a =
  access_lat_in t ~slot:t.slots.(0) ~core ~now op a ~operand ~operand2 ~fetch

let last_result t = t.slots.(0).last_result
let last_result_in (sl : slot) = sl.last_result

let access ?operand ?operand2 ?fetch t ~core ~now (op : Arch.memop) (a : addr)
    : int * int =
  let latency = access_lat ?operand ?operand2 ?fetch t ~core ~now op a in
  (latency, last_result t)

(* Expected latency of [op] issued by [core] right now, without doing
   it — used by ccbench to report best-case protocol latencies. *)
let probe_latency t ~core (op : Arch.memop) (a : addr) : int =
  Cost_model.op_latency t.platform.Platform.topo op ~requester:core
    (view_of_line t.slots.(0) (line t a))

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
  journal_line t (line_id t a);
  let l = line t a in
  (* wipe: back to invalid *)
  l.state <- Arch.Invalid;
  l.owner <- -1;
  Coreset.clear l.sharers;
  l.busy_until <- 0;
  l.pfw_owner <- -1;
  l.cas_pending <- -1;
  l.llc_dirty <- false;
  reset_resources t;
  let second =
    if second >= 0 then second
    else (holder + 1) mod t.platform.Platform.topo.Topology.n_cores
  in
  (match st with
  | Arch.Invalid -> ()
  | Arch.Exclusive ->
      ignore (access t ~core:holder ~now:0 Arch.Load a)
  | Arch.Modified ->
      ignore (access t ~core:holder ~now:0 Arch.Store a ~operand:t.values.(a))
  | Arch.Shared | Arch.Forward ->
      ignore (access t ~core:holder ~now:0 Arch.Load a);
      ignore (access t ~core:second ~now:0 Arch.Load a);
      l.state <- Arch.Shared
  | Arch.Owned ->
      (* dirty at holder, then loaded by another core (MOESI only) *)
      ignore (access t ~core:holder ~now:0 Arch.Store a ~operand:t.values.(a));
      ignore (access t ~core:second ~now:0 Arch.Load a);
      (match t.platform.Platform.id with
      | Arch.Opteron | Arch.Opteron2 -> ()
      | _ -> invalid_arg "Memory.force_state: Owned requires MOESI");
      l.busy_until <- 0);
  reset_resources t

let reset_busy t a =
  journal_line t (line_id t a);
  (line t a).busy_until <- 0;
  reset_resources t
