(* Aggregate statistics of a simulated memory: operation counts and
   cycle totals, split by operation kind. *)

type counter = { mutable count : int; mutable cycles : int }

let make_counter () = { count = 0; cycles = 0 }

type t = {
  loads : counter;
  stores : counter;
  atomics : counter;
  mutable local_hits : int;
  mutable invalidations : int; (* copies killed by exclusive requests *)
  mutable queued_cycles : int; (* cycles spent waiting on busy lines,
                                  including the resource wait below *)
  mutable link_queued_cycles : int;
      (* the part of [queued_cycles] spent waiting on busy interconnect
         links / home directories rather than the target line itself *)
  mutable elided_probes : int; (* inert spin probes accounted in bulk *)
}

let create () =
  {
    loads = make_counter ();
    stores = make_counter ();
    atomics = make_counter ();
    local_hits = 0;
    invalidations = 0;
    queued_cycles = 0;
    link_queued_cycles = 0;
    elided_probes = 0;
  }

let counter_for t (op : Ssync_platform.Arch.memop) =
  match op with
  | Load -> t.loads
  | Store -> t.stores
  | Cas | Fai | Tas | Swap -> t.atomics

let record t op ~latency ~queued ~rqueued ~local ~invalidated =
  let c = counter_for t op in
  c.count <- c.count + 1;
  c.cycles <- c.cycles + latency;
  if local then t.local_hits <- t.local_hits + 1;
  t.invalidations <- t.invalidations + invalidated;
  t.queued_cycles <- t.queued_cycles + queued;
  t.link_queued_cycles <- t.link_queued_cycles + rqueued

(* A load served from the requester's own cache: exactly what [record]
   of a [Load] with [~queued:0 ~rqueued:0 ~local:true ~invalidated:0]
   records, without the dispatch. *)
let record_local_load t ~latency =
  let c = t.loads in
  c.count <- c.count + 1;
  c.cycles <- c.cycles + latency;
  t.local_hits <- t.local_hits + 1

(* Bulk accounting for [count] elided spin probes of [latency] cycles
   each — exactly what [count] calls of [record] with [~queued:0
   ~invalidated:0] would have recorded.  [local] is false only for
   foreign-reservation directed reads. *)
let record_elided t op ~count ~latency ~local =
  let c = counter_for t op in
  c.count <- c.count + count;
  c.cycles <- c.cycles + (count * latency);
  if local then t.local_hits <- t.local_hits + count;
  t.elided_probes <- t.elided_probes + count

(* Add [src] into [dst] field-wise. *)
let add dst src =
  let add_counter d s =
    d.count <- d.count + s.count;
    d.cycles <- d.cycles + s.cycles
  in
  add_counter dst.loads src.loads;
  add_counter dst.stores src.stores;
  add_counter dst.atomics src.atomics;
  dst.local_hits <- dst.local_hits + src.local_hits;
  dst.invalidations <- dst.invalidations + src.invalidations;
  dst.queued_cycles <- dst.queued_cycles + src.queued_cycles;
  dst.link_queued_cycles <- dst.link_queued_cycles + src.link_queued_cycles;
  dst.elided_probes <- dst.elided_probes + src.elided_probes

(* An independent snapshot of [t].  It stays a [create] and an [add]:
   small enough to inline into perf/'s callers, where any other shape
   changes their size and moves the pace kernel's alignment (see the
   layout check in bench/perf_pairs.sh). *)
let copy t =
  let c = create () in
  add c t;
  c

let total_ops t = t.loads.count + t.stores.count + t.atomics.count
