(* Host-time spans for the traced run.  The benchmark opens a span
   around each of its own calls into the simulator's libraries, keeps
   every span in memory and writes them out as Chrome/Perfetto
   trace-event JSON when the run ends.  Host time is nondeterministic,
   so this file never mixes with the simulator's virtual-time trace. *)

type span = {
  name : string;
  id : int;  (** the job index; child spans carry their job's id *)
  parent : int;  (** handle of the enclosing span, -1 for a root *)
  t0 : float;
  mutable t1 : float;
  mutable args : (string * string) list;
}

type t = { mutable spans : span array; mutable n : int }

let dummy = { name = ""; id = 0; parent = -1; t0 = 0.; t1 = 0.; args = [] }
let create () = { spans = Array.make 1024 dummy; n = 0 }

(* Returns the span's handle. *)
let start t ~parent ~name ~id =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  let t0 = Unix.gettimeofday () in
  t.spans.(t.n) <- { name; id; parent; t0; t1 = t0; args = [] };
  t.n <- t.n + 1;
  t.n - 1

let stop t h = t.spans.(h).t1 <- Unix.gettimeofday ()
let set_args t h args = t.spans.(h).args <- args
let duration s = s.t1 -. s.t0

(* Every span with its self time: its duration minus its children's. *)
let with_self t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  List.init t.n (fun i -> (t.spans.(i), duration t.spans.(i) -. child.(i)))

(* Total self time of the spans called [name], in seconds. *)
let self_total t name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0. (with_self t)

let write_json t path =
  let b = Buffer.create 65536 in
  let origin = if t.n = 0 then 0. else t.spans.(0).t0 in
  let us x = (x -. origin) *. 1e6 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i (s, self) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\
         \"id\":%d,\"args\":{\"job\":%d,\"self_us\":%.3f"
        s.name (us s.t0) (duration s *. 1e6) s.id s.id (self *. 1e6);
      List.iter (fun (k, v) -> Printf.bprintf b ",%S:%S" k v) s.args;
      Buffer.add_string b "}}")
    (with_self t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc
