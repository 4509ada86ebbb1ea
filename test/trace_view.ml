(* A boxed view of the trace ring, for tests only: one record per
   event, written through [Trace]'s per-kind emitters and read back
   through its public readers ([ring], [iter_offsets], [kind], the
   [head_] readers and the payload offsets trace.mli documents).  The
   library itself reads the ring's ints; this view lets a test state
   the events it emits or expects as values. *)

open Ssync_platform
module Trace = Ssync_trace.Trace

type fault_kind = Trace.fault_kind = Jitter | Preempt | Crash

type event =
  | E_thread of { tid : int; core : int }
  | E_wait of { tid : int; lock : int }
  | E_acq of { tid : int; lock : int; wait : int; dist : Arch.distance option }
      (* [dist]: the handoff distance class, [None] for the lock's first
         acquisition *)
  | E_rel of { tid : int; lock : int; held : int }
  | E_xfer of {
      tid : int;
      core : int;  (* in [Trace.min_core, Trace.max_core] *)
      op : Arch.memop;
      addr : int;
      pre : Arch.cstate;
      post : Arch.cstate;
      dist : Arch.distance;
      lat : int;
      service : int;
      queued : int;
      rq : int;
      rq_dir : bool;
    }
  | E_park of { tid : int; addr : int }
  | E_wake of { tid : int; addr : int }
  | E_fault of { tid : int; kind : fault_kind; cycles : int }
  | E_send of { tid : int; chan : int }
  | E_recv of { tid : int; chan : int }

type entry = { ts : int; ev : event }

(* [emit t ~ts ev] writes what [ev]'s emitter writes. *)
let emit t ~ts = function
  | E_thread { tid; core } -> Trace.thread t ~ts ~tid ~core
  | E_wait { tid; lock } -> Trace.wait t ~ts ~tid ~lock
  | E_acq { tid; lock; wait; dist } ->
      let handoff =
        match dist with None -> -1 | Some d -> Cost_model.rank_of_class d
      in
      Trace.acq t ~ts ~tid ~lock ~wait ~handoff
  | E_rel { tid; lock; held } -> Trace.rel t ~ts ~tid ~lock ~held
  | E_xfer
      { tid; core; op; addr; pre; post; dist; lat; service; queued; rq; rq_dir }
    ->
      Trace.xfer t ~ts ~tid ~addr ~lat ~service ~queued ~rq
        (Trace.xfer_head ~core ~op ~pre ~post ~dist ~rq_dir)
  | E_park { tid; addr } -> Trace.park t ~ts ~tid ~addr
  | E_wake { tid; addr } -> Trace.wake t ~ts ~tid ~addr
  | E_fault { tid; kind; cycles } -> Trace.fault t ~ts ~tid ~kind ~cycles
  | E_send { tid; chan } -> Trace.send t ~ts ~tid ~chan
  | E_recv { tid; chan } -> Trace.recv t ~ts ~tid ~chan

let decode r o =
  let h = r.(o + 1) and tid = r.(o + 2) and p0 = r.(o + 3) in
  match Trace.kind h with
  | Thread -> E_thread { tid; core = p0 }
  | Wait -> E_wait { tid; lock = p0 }
  | Acq ->
      let rank = Trace.head_handoff h in
      let dist =
        if rank < 0 then None else Some Cost_model.class_of_rank.(rank)
      in
      E_acq { tid; lock = p0; wait = r.(o + 4); dist }
  | Rel -> E_rel { tid; lock = p0; held = r.(o + 4) }
  | Xfer ->
      E_xfer
        {
          tid;
          core = Trace.head_core h;
          op = Trace.head_op h;
          addr = p0;
          pre = Trace.head_pre h;
          post = Trace.head_post h;
          dist = Trace.head_dist h;
          lat = r.(o + 4);
          service = r.(o + 5);
          queued = r.(o + 6);
          rq = r.(o + 7);
          rq_dir = Trace.head_rq_dir h;
        }
  | Park -> E_park { tid; addr = p0 }
  | Wake -> E_wake { tid; addr = p0 }
  | Fault -> E_fault { tid; kind = Trace.head_fault h; cycles = p0 }
  | Send -> E_send { tid; chan = p0 }
  | Recv -> E_recv { tid; chan = p0 }

(* The retained events, oldest first, each decoded. *)
let iter t f =
  let r = Trace.ring t in
  Trace.iter_offsets t (fun o -> f { ts = r.(o); ev = decode r o })

let entries t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc
