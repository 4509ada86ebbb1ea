(* Operation mixes, e.g. the paper's hash-table workload: 80% get,
   10% put, 10% remove (section 6.3). *)

type op = Get | Put | Remove

type t = { get : int; put : int; remove : int (* percentages *) }

let make ~get ~put ~remove =
  if get < 0 || put < 0 || remove < 0 || get + put + remove <> 100 then
    invalid_arg "Op_mix.make: percentages must be >= 0 and sum to 100";
  { get; put; remove }

(* The paper's standard mix, which keeps the table size constant. *)
let paper = make ~get:80 ~put:10 ~remove:10
let get_only = make ~get:100 ~put:0 ~remove:0

let sample t rng =
  let r = Rng.int rng 100 in
  if r < t.get then Get else if r < t.get + t.put then Put else Remove
