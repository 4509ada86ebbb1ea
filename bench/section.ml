(* A figure/table section split into two phases:

   - [jobs]: the section's simulations, described as independent pure
     thunks.  Each job writes its result into a slot private to the
     section; jobs never print.  Because every simulation builds its own
     [Sim.t]/[Memory.t] and draws from its own seeded RNG, jobs compute
     the same values whatever domain or order runs them — which is what
     lets the driver fan them across a [Pool] and still render
     byte-identical output at any [--jobs] count.

   - [render]: reads the slots and prints the section's tables/series.
     Runs on the main domain, in section declaration order, after every
     job of the run has finished.

   Sections with no simulations (static tables, host-CPU Bechamel runs
   whose wall-clock numbers are inherently nondeterministic) use
   [serial]: an empty job list and a render that does all the work.  A
   section that times the host itself is [host_timed]: the driver runs
   a full major collection before its timer starts, so the garbage the
   job phase left is not charged to it. *)

type t = {
  jobs : (unit -> unit) array;
  render : unit -> unit;
  host_timed : bool;
}

module Trace = Ssync_trace.Trace
module Metrics = Ssync_metrics.Metrics

(* A job's value with the sinks it ran under. *)
type 'a observed = {
  value : 'a;
  trace : Trace.t option;
  metrics : Metrics.t option;
}

(* [observe ~trace ~metrics job] runs [job] under fresh sinks installed
   in whatever domain executes it (a trace ring of [capacity] events, a
   metrics accumulator on [grid]), uninstalls them when the job returns
   or raises, and returns them with its value.  One sink per job makes
   every export byte-identical at any --jobs count; sinks leave virtual
   time alone, so stdout is byte-identical with and without them. *)
let observe ?(trace = false) ?(metrics = false) ?capacity ?grid
    (job : unit -> 'a) () : 'a observed =
  Fun.protect
    ~finally:(fun () ->
      if trace then ignore (Trace.stop ());
      if metrics then ignore (Metrics.stop ()))
    (fun () ->
      let trace = if trace then Some (Trace.start ?capacity ()) else None in
      let metrics = if metrics then Some (Metrics.start ?grid ()) else None in
      let value = job () in
      { value; trace; metrics })

let make ~jobs render = { jobs; render; host_timed = false }
let serial render = { jobs = [||]; render; host_timed = false }
let host_timed render = { jobs = [||]; render; host_timed = true }

(* [sweep items run] describes one job per item: job [i] stores
   [run item_i].  Returns the jobs and an accessor for slot [i]; the
   accessor must only be called from [render] (after the jobs ran). *)
let sweep (items : 'a list) (run : 'a -> 'b) :
    (unit -> unit) array * (int -> 'b) =
  let arr = Array.of_list items in
  let out = Array.make (Array.length arr) None in
  let jobs = Array.mapi (fun i x () -> out.(i) <- Some (run x)) arr in
  let got i =
    match out.(i) with
    | Some v -> v
    | None -> invalid_arg "Section.sweep: result read before its job ran"
  in
  (jobs, got)

(* Replay sweep results in item order: renders that loop over the same
   nested structure as the plan did just pull the next slot. *)
let cursor (got : int -> 'b) : unit -> 'b =
  let i = ref 0 in
  fun () ->
    let v = got !i in
    incr i;
    v
