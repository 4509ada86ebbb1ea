(* Exhaustive reachability search of the coherence protocol, in the
   style of an explicit-state model checker (Murphi): from a fresh
   line, apply every operation of every chosen core to every word,
   breadth-first, until no new line state appears.  After every step
   the directory invariants must hold and every result must match a
   plain array model of the words; the number of reachable states per
   platform is pinned, so a protocol change that opens or closes a
   state shows up here before it moves a simulated number.

   A state is the line's protocol entry (state, owner, sharer words,
   prefetch reservation, pending CAS, LLC-dirty bit) plus its word
   values.  Occupancy is not part of it: every step starts from an
   idle line ([Memory.reset_busy]).  A state is expanded by replaying
   its operation path on a fresh memory, so the search needs nothing
   from [Memory] beyond its public accessors. *)

open Ssync_platform
open Ssync_coherence

(* One operation: [op] with its operands, as [Memory.access] takes
   them.  [Fai] +1 steps apply only while the word is below 2, which
   bounds the value domain at {0, 1, 2}. *)
type opspec = { op : Arch.memop; operand : int; operand2 : int }

let ops =
  [
    { op = Arch.Load; operand = 0; operand2 = 0 };
    { op = Arch.Store; operand = 0; operand2 = 0 };
    { op = Arch.Store; operand = 1; operand2 = 0 };
    { op = Arch.Store; operand = 0; operand2 = 1 } (* posted *);
    { op = Arch.Store; operand = 1; operand2 = 1 };
    { op = Arch.Cas; operand = 0; operand2 = 1 };
    { op = Arch.Cas; operand = 1; operand2 = 0 };
    { op = Arch.Fai; operand = 1; operand2 = 0 };
    { op = Arch.Fai; operand = 1; operand2 = 1 } (* store-class *);
    { op = Arch.Fai; operand = 0; operand2 = 0 } (* prefetchw probe *);
    { op = Arch.Tas; operand = 0; operand2 = 0 };
    { op = Arch.Swap; operand = 0; operand2 = 0 };
    { op = Arch.Swap; operand = 1; operand2 = 0 };
  ]

let enabled o v = not (o.op = Arch.Fai && o.operand = 1 && v >= 2)

(* The model: [(result, new value)] of [o] on a word holding [v]. *)
let model o v =
  match o.op with
  | Arch.Load -> (v, v)
  | Arch.Store -> (0, o.operand)
  | Arch.Cas -> if v = o.operand then (1, o.operand2) else (0, v)
  | Arch.Fai -> (v, v + o.operand)
  | Arch.Tas -> (v, 1)
  | Arch.Swap -> (v, o.operand)

type step = { core : int; word : int; o : opspec }

(* A line configuration: how to lay out the searched words. *)
type layout = Padded | Packed

let layout_name = function Padded -> "padded" | Packed -> "packed"

let n_words = function Padded -> 1 | Packed -> 2

(* The searched word(s) on a fresh memory: one padded word homed at
   the last core's node, or two words packed on one line homed at
   core 0's. *)
let alloc_words layout m last =
  match layout with
  | Padded -> Memory.alloc ~home_core:last m
  | Packed -> Memory.alloc_packed ~home_core:0 m 2

let key m base values =
  let l = Memory.line m base in
  Array.append
    [|
      Arch.cstate_index l.Memory.state;
      l.Memory.owner;
      l.Memory.sharers.Coreset.w0;
      l.Memory.sharers.Coreset.w1;
      l.Memory.pfw_owner;
      l.Memory.cas_pending;
      Bool.to_int l.Memory.llc_dirty;
    |]
    values

(* The directory invariants, or the first that fails.  [Memory]'s short
   path for a store or atomic by the owner of a Modified or Exclusive
   line relies on two of them: such a line has no sharers to
   invalidate, and its prefetch reservation is -1 or the owner's, so
   no foreign reservation can turn the access into a directed read. *)
let violation ~moesi (l : Memory.line) =
  let sh = l.Memory.sharers and o = l.Memory.owner in
  let no_sh = Coreset.is_empty sh in
  match l.Memory.state with
  | Arch.Owned when not moesi -> Some "Owned on a MESI platform"
  | (Arch.Modified | Arch.Exclusive | Arch.Owned) when o < 0 ->
      Some "M/E/O line without an owner"
  | (Arch.Shared | Arch.Invalid) when o >= 0 -> Some "S/I line with an owner"
  | (Arch.Modified | Arch.Exclusive | Arch.Invalid) when not no_sh ->
      Some "M/E/I line with sharers"
  | Arch.Shared when no_sh -> Some "Shared line without sharers"
  | _ when o >= 0 && Coreset.mem sh o -> Some "owner among the sharers"
  | _ when l.Memory.pfw_owner >= 0 && l.Memory.pfw_owner <> o ->
      Some "prefetch reservation held by a non-owner"
  | _ -> None

let show_path path =
  String.concat "; "
    (List.rev_map
       (fun s ->
         Printf.sprintf "c%d w%d %s(%d,%d)" s.core s.word
           (Arch.memop_name s.o.op) s.o.operand s.o.operand2)
       path)

(* Breadth-first search over one platform and layout; returns the
   number of reachable states.  Fails on the first step that breaks an
   invariant or returns a value the model disagrees with, naming the
   (shortest) path that reached it. *)
let search pid layout =
  let platform = Platform.get pid in
  let last = Platform.n_cores platform - 1 in
  let cores = [ 0; 1; last ] in
  let moesi =
    match pid with
    | Arch.Opteron | Arch.Opteron2 -> true
    | Arch.Xeon | Arch.Xeon2 | Arch.Niagara | Arch.Tilera -> false
  in
  let nw = n_words layout in
  let seen = Hashtbl.create 1024 in
  let frontier = Queue.create () in
  let fail path msg =
    Alcotest.failf "%s %s: %s after [%s]" (Arch.platform_name pid)
      (layout_name layout) msg (show_path path)
  in
  (* Run [path] (most recent step first) on a fresh memory, then hand
     the memory and the first word's address to [k]. *)
  let replay path k =
    let m = Memory.create platform in
    let base = alloc_words layout m last in
    List.iter
      (fun s ->
        Memory.reset_busy m base;
        ignore
          (Memory.access m ~core:s.core ~now:0 s.o.op (base + s.word)
             ~operand:s.o.operand ~operand2:s.o.operand2))
      (List.rev path);
    let r = k m base in
    Memory.dispose m;
    r
  in
  let values0 = Array.make nw 0 in
  let k0 = replay [] (fun m base -> key m base values0) in
  Hashtbl.replace seen k0 ();
  Queue.push ([], values0) frontier;
  while not (Queue.is_empty frontier) do
    let path, values = Queue.pop frontier in
    List.iter
      (fun core ->
        for word = 0 to nw - 1 do
          List.iter
            (fun o ->
              if enabled o values.(word) then begin
                let s = { core; word; o } in
                let path' = s :: path in
                let expected, v' = model o values.(word) in
                let values' = Array.copy values in
                values'.(word) <- v';
                let k =
                  replay path (fun m base ->
                      Memory.reset_busy m base;
                      let _, r =
                        Memory.access m ~core ~now:0 o.op (base + word)
                          ~operand:o.operand ~operand2:o.operand2
                      in
                      if r <> expected then
                        fail path'
                          (Printf.sprintf "result %d, model says %d" r expected);
                      Array.iteri
                        (fun w v ->
                          if Memory.peek m (base + w) <> v then
                            fail path'
                              (Printf.sprintf "word %d holds %d, model says %d"
                                 w (Memory.peek m (base + w)) v))
                        values';
                      (match violation ~moesi (Memory.line m base) with
                      | Some msg -> fail path' msg
                      | None -> ());
                      key m base values')
                in
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.replace seen k ();
                  Queue.push (path', values') frontier
                end
              end)
            ops
        done)
      cores
  done;
  Hashtbl.length seen

(* Reachable states per platform: (padded, packed).  The MOESI
   platforms reach more, all of them Owned states. *)
let expected =
  [
    (Arch.Opteron, (191, 605));
    (Arch.Xeon, (147, 465));
    (Arch.Niagara, (147, 465));
    (Arch.Tilera, (147, 465));
    (Arch.Opteron2, (191, 605));
    (Arch.Xeon2, (147, 465));
  ]

let test_platform pid (padded, packed) () =
  Alcotest.(check int) "padded states" padded (search pid Padded);
  Alcotest.(check int) "packed states" packed (search pid Packed)

let suite =
  List.map
    (fun (pid, counts) ->
      Alcotest.test_case
        (Arch.platform_name pid ^ ": reachable states hold the invariants")
        `Quick (test_platform pid counts))
    expected
