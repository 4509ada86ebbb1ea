(* Reference memory for the differential tests in test_coherence.ml:
   the record-per-line [Memory] the library shipped before its line
   state moved into one flat int table, kept verbatim except for this
   header, the [Stats] alias and its metrics plumbing, which writes
   every sample straight into the domain's sink as [Memory] does.
   Every line is a mutable record with its own [Coreset], and the
   cost-model view aliases that set.  Its short path ([fast_hit])
   takes only load hits, with metrics off, so it is also the twin the
   local-hit test checks [Memory]'s wider short path against.  Only
   test code uses this module. *)

open Ssync_platform
module Trace = Ssync_trace.Trace
module V = Trace_view
module Metrics = Ssync_metrics.Metrics
module Stats = Ssync_coherence.Stats

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
  mutable wq : waiter option;
      (* parked spinners in park order, a circular list through
         [w_link]: [Some last] holds the last parked, whose [w_link] is
         the first, so an append is O(1) *)
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
  mutable w_link : waiter;      (* next on the line (see [line.wq]) *)
}

type t = {
  platform : Platform.t;
  mutable lines : line array;   (* indexed by line id *)
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
         indexed alongside [lines]; [[||]] when metrics are off (a side
         array, to keep the line record small) *)
}

let no_tie (_ : int) = false

let rec no_waiter =
  { w_core = -1; w_addr = -1; w_op = Arch.Load; w_operand = 0; w_operand2 = 0;
    w_while = 0; w_poll = 0; w_hit = 1; w_local = true; w_parked = 0;
    w_next = max_int; w_tie = no_tie; w_replay = ignore; w_link = no_waiter }

let dummy_line =
  { state = Arch.Invalid; owner = -1; sharers = Coreset.create (); home = 0;
    busy_until = 0; pfw_owner = -1; cas_pending = -1; llc_dirty = false;
    wq = None }

(* Domain-local recycling pool.  A benchmark harness creates one memory
   per job and thousands of jobs per section; the line records and the
   word-indexed arrays dominate each job's setup allocation
   (and the minor-GC promotion traffic that goes with it), so
   [dispose]d memories donate them to the next [create] on the same
   domain.  [new_line]/[new_word] initialise every recycled cell
   explicitly, so a pooled array needs no cleaning here.  Domain-local
   (no lock): job fan-out runs whole jobs per domain. *)
type recycled = {
  r_lines : line array;
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
  let n_res = Cost_model.n_resources platform.Platform.topo in
  let pool = Domain.DLS.get pool_key in
  let lines, values, word2line =
    match !pool with
    | r :: rest ->
        pool := rest;
        (r.r_lines, r.r_values, r.r_word2line)
    | [] -> (Array.make 1024 dummy_line, Array.make 1024 0, Array.make 1024 0)
  in
  {
    platform;
    lines;
    n_lines = 0;
    values;
    word2line;
    n_words = 0;
    rbusy = Array.make n_res 0;
    hit_lat = Cost_model.load_hit_latency platform.Platform.topo;
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
      | Some _ -> Array.make (Array.length lines) 0);
  }

(* Return the memory's recyclable arrays to the domain pool.  The
   caller promises no live simulation references [t] any more; [t]
   itself becomes unusable (word/line counts are zeroed so any stale
   access trips the bounds checks).  Waiter lists are cleared eagerly —
   parked-probe replay closures can retain an entire dead simulation. *)
let dispose t =
  for li = 0 to t.n_lines - 1 do
    t.lines.(li).wq <- None
  done;
  t.n_lines <- 0;
  t.n_words <- 0;
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < pool_max then
    pool :=
      {
        r_lines = t.lines;
        r_values = t.values;
        r_word2line = t.word2line;
      }
      :: !pool

let platform t = t.platform
let stats t = t.stats
let n_lines t = t.n_lines
let line_words t = t.platform.Platform.topo.Topology.line_words

(* Append one line homed at node [home]; returns its line id.  Every
   per-line cell is initialised explicitly: the arrays may be recycled
   from a disposed memory ([dispose]), so nothing may rely on
   allocation-time fills. *)
let new_line t ~home =
  if t.n_lines = Array.length t.lines then begin
    let cap = 2 * Array.length t.lines in
    let bigger = Array.make cap dummy_line in
    Array.blit t.lines 0 bigger 0 t.n_lines;
    t.lines <- bigger;
    if Array.length t.msince > 0 then begin
      let b = Array.make cap 0 in
      Array.blit t.msince 0 b 0 t.n_lines;
      t.msince <- b
    end
  end;
  let li = t.n_lines in
  let l = t.lines.(li) in
  if l == dummy_line then
    t.lines.(li) <-
      { state = Arch.Invalid; owner = -1; sharers = Coreset.create (); home;
        busy_until = 0; pfw_owner = -1; cas_pending = -1; llc_dirty = false;
        wq = None }
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
    l.wq <- None
  end;
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

let line t a = t.lines.(line_id t a)

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

(* Refill the scratch view from [l]; [sharers] aliases the line's set,
   which the cost model only reads. *)
let view_of_line t (l : line) : Cost_model.view =
  let v = t.scratch in
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
   [access], [try_park_in] (the parked poll grid must charge the same
   per-probe cost the literal loop would) and [wake_disturbed] (a parked
   waiter whose probe cost changed must replay for real to stay on the
   polled schedule). *)
let probe_cost t (l : line) ~core (op : Arch.memop) ~operand
    ~operand2 =
  let cost_op =
    if foreign_reservation l ~core op ~operand ~operand2 then Arch.Load
    else cost_op_of op ~operand ~operand2
  in
  Cost_model.op_latency t.platform.Platform.topo cost_op ~requester:core
    (view_of_line t l)

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
        | Arch.Shared -> Coreset.add l.sharers core
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

(* Service latency of a probe of [op] by [core] on word [a] if it would
   be inert right now (see [probe_inert]), else -1. *)
let inert_hit t ~core (op : Arch.memop) (a : addr) ~operand ~operand2 ~while_ =
  let l = line t a in
  if probe_inert l ~value:t.values.(a) ~core op ~operand ~operand2 ~while_ then
    probe_cost t l ~core op ~operand ~operand2
  else -1

(* Park a spinner whose next probe issues at [now + poll] and would be
   inert, at the tail of its line's wait list.  It recomputes the probe
   cost rather than take it as a twelfth argument: a new arity above 11
   adds [caml_curryN]/[caml_applyN] code to [caml_startup], which the
   linker places first, and shifts the alignment of everything after
   it, the perf harness's host-pace kernel included. *)
let park t ~core ~now (op : Arch.memop) (a : addr) ~operand ~operand2 ~while_
    ~poll ~tie ~replay =
  let l = line t a in
  let hit = probe_cost t l ~core op ~operand ~operand2 in
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
      w_local = not (foreign_reservation l ~core op ~operand ~operand2);
      w_parked = now;
      w_next = now + poll;
      w_tie = tie;
      w_replay = replay;
      w_link = no_waiter;
    }
  in
  (match l.wq with
  | None -> w.w_link <- w
  | Some last ->
      w.w_link <- last.w_link;
      last.w_link <- w);
  l.wq <- Some w;
  w

(* Park a spinner whose next probe (issuing at [now + poll]) would be
   inert.  Returns [false] — and parks nothing — when the probe must
   run for real.  [replay] receives the issue time of the first
   non-elided probe once a real access disturbs the line. *)
let try_park_in t ~core ~now (op : Arch.memop) (a : addr) ~operand
    ~operand2 ~while_ ~poll ~replay : bool =
  probe_inert (line t a) ~value:t.values.(a) ~core op ~operand ~operand2
    ~while_
  && begin
       ignore
         (park t ~core ~now op a ~operand ~operand2 ~while_ ~poll ~tie:no_tie
            ~replay);
       true
     end

let waiter_count t a =
  match (line t a).wq with
  | None -> 0
  | Some last ->
      let n = ref 1 and w = ref last.w_link in
      while !w != last do
        incr n;
        w := !w.w_link
      done;
      !n

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
  let l = t.lines.(li) in
  match l.wq with
  | None -> ()
  | Some last ->
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
        if w.w_link == w then l.wq <- None
        else begin
          !prev.w_link <- w.w_link;
          if last == w then l.wq <- Some !prev
        end;
        w.w_link <- no_waiter;
        match t.macc with
        | Some m ->
            Metrics.span m ~kind:Metrics.k_lock_waiters ~id:li ~t0:w.w_parked
              ~t1:at ~weight:1
        | None -> ()
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
   have changed under it — false sharing hits parked spinners too. *)
let wake_disturbed t ~line:li (l : line) last =
  (* unlink the woken in place, chaining them through [w_link];
     [tail] tracks the circle's last waiter as they go *)
  let woken = ref no_waiter and woken_tail = ref no_waiter in
  let tail = ref last and prev = ref last and go = ref true in
  while !go do
    let w = !prev.w_link in
    go := w != last;
    if
      probe_inert l ~value:t.values.(w.w_addr) ~core:w.w_core w.w_op
        ~operand:w.w_operand ~operand2:w.w_operand2 ~while_:w.w_while
      && probe_cost t l ~core:w.w_core w.w_op ~operand:w.w_operand
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
  if !tail != last then l.wq <- (if !tail == no_waiter then None else Some !tail);
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

(* Distance class of the transfer serving [core]'s request on [l] in
   its *pre-access* state: to the data source when a cached copy
   exists, to the line's home otherwise.  Trace-only; must run before
   [transition] mutates the line (and its aliased sharer set). *)
let dist_of t ~core (l : line) : Arch.distance =
  Cost_model.source_class t.platform.Platform.topo ~requester:core
    (view_of_line t l)

(* Can [access_lat_in] serve this access on its local-hit path?  A load
   hitting in the requester's own cache, on a line no spinner is parked
   on, with metrics off: it costs [Cost_model.load_hit_latency], moves no
   protocol state and queues behind nothing, so it skips the cost-model
   view, the resource path, the transition and the generic
   [Stats.record]. *)
let fast_hit t (l : line) ~core (op : Arch.memop) =
  match op with
  | Arch.Load -> l.wq == None && t.macc == None && holds l core
  | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> false

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
   optional for casual callers). *)
let access_lat_in t ~core ~now (op : Arch.memop) (a : addr)
    ~operand ~operand2 ~fetch : int =
  let topo = t.platform.Platform.topo in
  Topology.check topo core;
  let li = line_id t a in
  let l = t.lines.(li) in
  if fast_hit t l ~core op then begin
    (* exactly what the general path below does for such a load *)
    l.pfw_owner <- -1;
    if l.cas_pending = core then l.cas_pending <- -1;
    Stats.record_local_load t.stats ~latency:t.hit_lat;
    (match t.trace with
    | Some tr -> Trace.note_local tr ~cycles:t.hit_lat
    | None -> ());
    t.last_result <- t.values.(a);
    t.hit_lat
  end
  else if foreign_reservation l ~core op ~operand ~operand2 then begin
    (* Directed read under another waiter's exclusive-prefetch
       reservation: a non-binding snoop of the current copy that rides
       the line's data-return path — no transition, no occupancy, no
       queueing — so concurrent prefetchw pollers neither steal the
       reservation nor serialize on the line (section 5.3's directed
       handoff).  Nothing mutates, so parked waiters are untouched. *)
    let service =
      Cost_model.op_latency topo Arch.Load ~requester:core (view_of_line t l)
    in
    Stats.record t.stats op ~latency:service ~queued:0 ~rqueued:0
      ~local:false ~invalidated:0;
    (match t.trace with
    | Some tr ->
        V.emit tr ~ts:now
          (V.E_xfer
             { tid = Trace.cur_tid tr; core; op; addr = a; pre = l.state;
               post = l.state; dist = dist_of t ~core l; lat = service;
               service; queued = 0; rq = 0; rq_dir = false })
    | None -> ());
    t.last_result <- t.values.(a);
    service
  end
  else begin
    (match l.wq with None -> () | Some last -> settle_elided t last ~now);
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
      Cost_model.op_latency topo cost_op ~requester:core (view_of_line t l)
    in
    (* the interconnect resources this transfer crosses: queue behind
       them (unless bypassing) and hold them for the transfer's service
       below *)
    let n_nodes = topo.Topology.n_nodes in
    let npath =
      if local then 0
      else Cost_model.fill_path topo ~requester:core (view_of_line t l)
          t.path
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
          let b = t.rbusy.(t.path.(i)) in
          if b > !s then begin
            s := b;
            qres := t.path.(i)
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
      | Some _ when not local -> dist_of t ~core l
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
      (match t.macc with
      | Some m when nb > l.busy_until ->
          Metrics.span m ~kind:Metrics.k_line_occ ~id:li
            ~t0:(Int.max start l.busy_until) ~t1:nb ~weight:1
      | _ -> ());
      l.busy_until <- Int.max l.busy_until nb;
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
    Stats.record t.stats op ~latency
      ~queued:(if posted then 0 else queued)
      ~rqueued:(if posted then 0 else rqueued)
      ~local ~invalidated;
    (match t.trace with
    | Some tr ->
        if local then Trace.note_local tr ~cycles:latency
        else
          V.emit tr ~ts:now
            (V.E_xfer
               { tid = Trace.cur_tid tr; core; op; addr = a; pre = pre_state;
                 post = l.state; dist = tr_dist; lat = latency; service;
                 queued = (if posted then 0 else queued);
                 rq = (if posted then 0 else rqueued);
                 rq_dir = (!qres >= 0 && !qres < n_nodes) })
    | None -> ());
    (match l.wq with None -> () | Some last -> wake_disturbed t ~line:li l last);
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
   it — used by ccbench to report best-case protocol latencies. *)
let probe_latency t ~core (op : Arch.memop) (a : addr) : int =
  Cost_model.op_latency t.platform.Platform.topo op ~requester:core
    (view_of_line t (line t a))

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
  | Arch.Shared ->
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
  (line t a).busy_until <- 0;
  reset_resources t
