(* Virtual-time telemetry accumulators.  See metrics.mli for the
   determinism argument; the implementation is a hash table of
   (kind, id, bucket) -> cycle sums plus an epoch base, deliberately
   order-independent so branches can be merged in any order without
   changing a byte of the dump. *)

let requested = ref false
let bucket_cycles = ref 65536

(* Deterministic timeline kinds. *)
let k_dir_busy = 0
let k_link_busy = 1
let k_dir_queued = 2
let k_link_queued = 3
let k_line_occ = 4
let k_line_sharers = 5
let k_lock_waiters = 6
let k_runnable = 7
let k_spinning = 8
let k_parked = 9
let k_parks = 10
let k_wakes = 11
let n_kinds = 12

let kind_names =
  [|
    "dir_busy"; "link_busy"; "dir_queued"; "link_queued"; "line_occ";
    "line_sharers"; "lock_waiters"; "runnable"; "spinning"; "parked";
    "parks"; "wakes";
  |]

let kind_name k =
  if k >= 0 && k < n_kinds then kind_names.(k) else string_of_int k

type t = {
  tbl : (int * int * int, int ref) Hashtbl.t;
  w : int;  (* grid width, cycles per bucket *)
  mutable base : int;  (* epoch base, absolute cycles, grid-aligned *)
  mutable max_ts : int;  (* highest absolute cycle sampled *)
}

let create () = { tbl = Hashtbl.create 256; w = !bucket_cycles; base = 0; max_ts = 0 }
let grid t = t.w
let base t = t.base
let max_ts t = t.max_ts

let add t kind id bucket v =
  let key = (kind, id, bucket) in
  match Hashtbl.find_opt t.tbl key with
  | Some r -> r := !r + v
  | None -> Hashtbl.add t.tbl key (ref v)

let span t ~kind ~id ~t0 ~t1 ~weight =
  if t1 > t0 && weight <> 0 then begin
    let a = t.base + max 0 t0 in
    let b = t.base + max 0 t1 in
    if b > t.max_ts then t.max_ts <- b;
    let b0 = a / t.w and b1 = (b - 1) / t.w in
    if b0 = b1 then add t kind id b0 (weight * (b - a))
    else begin
      add t kind id b0 (weight * ((b0 + 1) * t.w - a));
      for bk = b0 + 1 to b1 - 1 do
        add t kind id bk (weight * t.w)
      done;
      add t kind id b1 (weight * (b - b1 * t.w))
    end
  end

let bump t ~kind ~id ~ts n =
  if n <> 0 then begin
    let a = t.base + max 0 ts in
    if a + 1 > t.max_ts then t.max_ts <- a + 1;
    add t kind id (a / t.w) n
  end

let merge ~into t =
  if into.w <> t.w then invalid_arg "Metrics.merge: grid mismatch";
  Hashtbl.iter (fun (k, i, b) r -> add into k i b !r) t.tbl;
  if t.max_ts > into.max_ts then into.max_ts <- t.max_ts;
  Hashtbl.reset t.tbl;
  t.max_ts <- t.base

let new_epoch t =
  if t.max_ts > t.base then t.base <- (t.max_ts / t.w + 1) * t.w

let branch t =
  { tbl = Hashtbl.create 64; w = t.w; base = t.base; max_ts = t.base }

(* ------------------------------ sinks ------------------------------ *)

let sink_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let current () = !(Domain.DLS.get sink_key)

let start () =
  let t = create () in
  Domain.DLS.get sink_key := Some t;
  t

let stop () =
  let cell = Domain.DLS.get sink_key in
  let t = !cell in
  cell := None;
  t

(* ----------------------------- reading ----------------------------- *)

let total t ~kind =
  Hashtbl.fold (fun (k, _, _) r acc -> if k = kind then acc + !r else acc) t.tbl 0

let total_id t ~kind ~id =
  Hashtbl.fold
    (fun (k, i, _) r acc -> if k = kind && i = id then acc + !r else acc)
    t.tbl 0

let sorted_keys t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
  List.sort compare keys

let iter_sorted t f =
  List.iter
    (fun ((k, i, b) as key) -> f ~kind:k ~id:i ~bucket:b !(Hashtbl.find t.tbl key))
    (sorted_keys t)

(* ------------------------------ dumps ------------------------------ *)

let dump_csv buf jobs =
  Buffer.add_string buf
    (Printf.sprintf "# ssync metrics v1 bucket_cycles=%d\n" !bucket_cycles);
  List.iter
    (fun (label, t) ->
      Buffer.add_string buf (Printf.sprintf "# job %s\n" label);
      iter_sorted t (fun ~kind ~id ~bucket v ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%d,%d\n" (kind_name kind) id bucket v)))
    jobs

let dump_json buf jobs =
  Buffer.add_string buf
    (Printf.sprintf "{\"bucket_cycles\": %d, \"jobs\": [" !bucket_cycles);
  List.iteri
    (fun j (label, t) ->
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n{\"label\": %S, \"samples\": [" label);
      let first = ref true in
      iter_sorted t (fun ~kind ~id ~bucket v ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf
            (Printf.sprintf "\n[%S, %d, %d, %d]" (kind_name kind) id bucket v));
      Buffer.add_string buf "]}")
    jobs;
  Buffer.add_string buf "]}\n"

let dump_file path jobs =
  let buf = Buffer.create 4096 in
  if Filename.check_suffix path ".json" then dump_json buf jobs
  else dump_csv buf jobs;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc
