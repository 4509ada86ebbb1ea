(* Virtual-time telemetry accumulators.  See metrics.mli for the
   determinism argument.  The table maps (kind, id, bucket) to cycle
   sums plus an epoch base; sums commute, so the order in which the
   samples arrive changes no byte of the dump.

   Every sampled access adds to it, so the table is open addressing
   with linear probing over parallel int arrays: [add] allocates
   nothing and hashes and compares with int code only.  Keys are the
   three ints themselves, never packed into one, so no key can alias
   another.  An empty slot holds kind -1; [span] and [bump] reject
   negative kinds. *)

(* The buffer writer both exporters use (the Chrome trace and the dumps
   below).  Exports run to hundreds of MB, so nothing here allocates per
   call: ints are written digit by digit and strings are escaped
   straight into the buffer.  It lives here rather than in a module of
   its own: linking one more compilation unit shifts the engine's hot
   code (see DESIGN.md "Observability"). *)
module Writer = struct
  let rec add_digits b n =
    if n >= 10 then add_digits b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

  let int b n =
    if n >= 0 then add_digits b n
    else begin
      Buffer.add_char b '-';
      (* peel the last digit first: [-min_int] overflows *)
      if n <= -10 then add_digits b (-(n / 10));
      Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
    end

  let hex = "0123456789abcdef"

  let escaped b s =
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex.[Char.code c lsr 4];
          Buffer.add_char b hex.[Char.code c land 15]
      | c -> Buffer.add_char b c
    done

  let needs_escape c = c = '"' || c = '\\' || Char.code c < 32

  let escape s =
    if not (String.exists needs_escape s) then s
    else begin
      let b = Buffer.create (String.length s + 16) in
      escaped b s;
      Buffer.contents b
    end
end

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
  w : int;  (* grid width, cycles per bucket *)
  mutable base : int;  (* epoch base, absolute cycles, grid-aligned *)
  mutable max_ts : int;  (* highest absolute cycle sampled *)
  mutable used : int;  (* occupied slots *)
  mutable kinds : int array;  (* -1 = empty slot *)
  mutable ids : int array;
  mutable bks : int array;
  mutable vals : int array;
}

let create ?(grid = 65536) () =
  if grid < 1 then invalid_arg "Metrics.create: grid must be positive";
  let cap = 256 in
  {
    w = grid;
    base = 0;
    max_ts = 0;
    used = 0;
    kinds = Array.make cap (-1);
    ids = Array.make cap 0;
    bks = Array.make cap 0;
    vals = Array.make cap 0;
  }

let grid t = t.w
let base t = t.base
let max_ts t = t.max_ts

(* The slot holding key (kind, id, bucket), or the empty slot where it
   belongs.  The table is at most half full, so the probe ends. *)
let find t (kind : int) (id : int) (bucket : int) =
  let mask = Array.length t.kinds - 1 in
  let h =
    ((((kind * 0x2545F491) + id) * 0x4F6CDD1D) + bucket) * 0x1E3779B97F4A7C15
  in
  let s = ref ((h lxor (h lsr 31)) land mask) in
  while
    let k = t.kinds.(!s) in
    k >= 0 && not (k = kind && t.ids.(!s) = id && t.bks.(!s) = bucket)
  do
    s := (!s + 1) land mask
  done;
  !s

let rec add t kind id bucket v =
  if kind < 0 then invalid_arg "Metrics: negative kind";
  let s = find t kind id bucket in
  if t.kinds.(s) >= 0 then t.vals.(s) <- t.vals.(s) + v
  else begin
    t.kinds.(s) <- kind;
    t.ids.(s) <- id;
    t.bks.(s) <- bucket;
    t.vals.(s) <- v;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.kinds then grow t
  end

(* Double the capacity (a power of two) and re-add every sample. *)
and grow t =
  let kinds = t.kinds and ids = t.ids and bks = t.bks and vals = t.vals in
  let cap = 2 * Array.length kinds in
  t.used <- 0;
  t.kinds <- Array.make cap (-1);
  t.ids <- Array.make cap 0;
  t.bks <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  for s = 0 to Array.length kinds - 1 do
    if kinds.(s) >= 0 then add t kinds.(s) ids.(s) bks.(s) vals.(s)
  done

let span t ~kind ~id ~t0 ~t1 ~weight =
  if t1 > t0 && weight <> 0 then begin
    let a = t.base + Int.max 0 t0 in
    let b = t.base + Int.max 0 t1 in
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
    let a = t.base + Int.max 0 ts in
    if a + 1 > t.max_ts then t.max_ts <- a + 1;
    add t kind id (a / t.w) n
  end

let new_epoch t =
  if t.max_ts > t.base then t.base <- ((t.max_ts / t.w) + 1) * t.w

(* ------------------------------ sinks ------------------------------ *)

let sink_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let current () = !(Domain.DLS.get sink_key)

let start ?grid () =
  let t = create ?grid () in
  Domain.DLS.get sink_key := Some t;
  t

let stop () =
  let cell = Domain.DLS.get sink_key in
  let t = !cell in
  cell := None;
  t

(* ----------------------------- reading ----------------------------- *)

let total t ~kind =
  let acc = ref 0 in
  if kind >= 0 then
    for s = 0 to Array.length t.kinds - 1 do
      if t.kinds.(s) = kind then acc := !acc + t.vals.(s)
    done;
  !acc

let total_id t ~kind ~id =
  let acc = ref 0 in
  if kind >= 0 then
    for s = 0 to Array.length t.kinds - 1 do
      if t.kinds.(s) = kind && t.ids.(s) = id then acc := !acc + t.vals.(s)
    done;
  !acc

let iter t f =
  let kinds = t.kinds in
  for s = 0 to Array.length kinds - 1 do
    let k = kinds.(s) in
    if k >= 0 then f ~kind:k ~id:t.ids.(s) ~bucket:t.bks.(s) t.vals.(s)
  done

(* [slots] sorted in place by (kind, id, bucket), comparing the three
   ints in turn. *)
let compare_sort t slots =
  let kinds = t.kinds and ids = t.ids and bks = t.bks in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare kinds.(a) kinds.(b) in
      if c <> 0 then c
      else
        let c = Int.compare ids.(a) ids.(b) in
        if c <> 0 then c else Int.compare bks.(a) bks.(b))
    slots

(* [slots] sorted by [keys] (the key of [slots.(i)] is [keys.(i)], all
   in [\[0, max_key\]]): an LSD radix sort, one byte per pass, as many
   passes as [max_key] has bytes (a shift of [Sys.int_size] or more
   is undefined, so the passes stop there).  Returns the sorted
   slots. *)
let radix_sort keys slots ~max_key =
  let n = Array.length slots in
  let keys = ref keys and slots = ref slots in
  let keys' = ref (Array.make n 0) and slots' = ref (Array.make n 0) in
  let count = Array.make 257 0 in
  let shift = ref 0 in
  while !shift < Sys.int_size && max_key lsr !shift > 0 do
    let ks = !keys and ss = !slots and kd = !keys' and sd = !slots' in
    Array.fill count 0 257 0;
    for i = 0 to n - 1 do
      let d = ((ks.(i) lsr !shift) land 255) + 1 in
      count.(d) <- count.(d) + 1
    done;
    for d = 1 to 255 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for i = 0 to n - 1 do
      let k = ks.(i) in
      let d = (k lsr !shift) land 255 in
      let p = count.(d) in
      count.(d) <- p + 1;
      kd.(p) <- k;
      sd.(p) <- ss.(i)
    done;
    keys := kd;
    slots := sd;
    keys' := ks;
    slots' := ss;
    shift := !shift + 8
  done;
  !slots

(* The occupied slots in (kind, id, bucket) order.  Every key is
   packed into one int, relative to the smallest kind, id and bucket
   present, as ((kind * n_ids) + id) * n_buckets + bucket, and the
   packed keys are radix-sorted.  When a span or the product does not
   fit in an int (ids far apart, or a huge bucket range at a fine
   grid), the slots are compared field by field instead. *)
let sorted_slots t =
  let kinds = t.kinds and ids = t.ids and bks = t.bks in
  let slots = Array.make t.used 0 in
  let n = ref 0 and kmin = ref max_int and kmax = ref min_int in
  let imin = ref max_int and imax = ref min_int in
  let bmin = ref max_int and bmax = ref min_int in
  for s = 0 to Array.length kinds - 1 do
    let k = kinds.(s) in
    if k >= 0 then begin
      slots.(!n) <- s;
      incr n;
      let i = ids.(s) and b = bks.(s) in
      if k < !kmin then kmin := k;
      if k > !kmax then kmax := k;
      if i < !imin then imin := i;
      if i > !imax then imax := i;
      if b < !bmin then bmin := b;
      if b > !bmax then bmax := b
    end
  done;
  let kmin = !kmin and imin = !imin and bmin = !bmin in
  let nk = !kmax - kmin + 1 and ni = !imax - imin + 1 in
  let nb = !bmax - bmin + 1 in
  if t.used <= 1 then slots
  else if
    nk > 0 && ni > 0 && nb > 0 && ni <= max_int / nb
    && nk <= max_int / (ni * nb)
  then
    let keys =
      Array.map
        (fun s ->
          ((((kinds.(s) - kmin) * ni) + ids.(s) - imin) * nb) + bks.(s) - bmin)
        slots
    in
    radix_sort keys slots ~max_key:((nk * ni * nb) - 1)
  else begin
    compare_sort t slots;
    slots
  end

let iter_sorted t f =
  Array.iter
    (fun s -> f ~kind:t.kinds.(s) ~id:t.ids.(s) ~bucket:t.bks.(s) t.vals.(s))
    (sorted_slots t)

(* ------------------------------ dumps ------------------------------ *)

(* [kind_name k] without allocating.  Kind names are identifiers or
   digits, so they need no JSON escaping. *)
let add_kind b k =
  if k >= 0 && k < n_kinds then Buffer.add_string b kind_names.(k)
  else Writer.int b k

(* The grid a dump's header names: the first job's (the jobs of one run
   share it), the default with no job. *)
let dump_grid = function [] -> 65536 | (_, t) :: _ -> t.w

let dump_csv buf jobs =
  Buffer.add_string buf "# ssync metrics v1 bucket_cycles=";
  Writer.int buf (dump_grid jobs);
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, t) ->
      Buffer.add_string buf "# job ";
      Buffer.add_string buf label;
      Buffer.add_char buf '\n';
      iter_sorted t (fun ~kind ~id ~bucket v ->
          add_kind buf kind;
          Buffer.add_char buf ',';
          Writer.int buf id;
          Buffer.add_char buf ',';
          Writer.int buf bucket;
          Buffer.add_char buf ',';
          Writer.int buf v;
          Buffer.add_char buf '\n'))
    jobs

let dump_json buf jobs =
  Buffer.add_string buf "{\"bucket_cycles\": ";
  Writer.int buf (dump_grid jobs);
  Buffer.add_string buf ", \"jobs\": [";
  List.iteri
    (fun j (label, t) ->
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n{\"label\": \"";
      Writer.escaped buf label;
      Buffer.add_string buf "\", \"samples\": [";
      let first = ref true in
      iter_sorted t (fun ~kind ~id ~bucket v ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf "\n[\"";
          add_kind buf kind;
          Buffer.add_string buf "\", ";
          Writer.int buf id;
          Buffer.add_string buf ", ";
          Writer.int buf bucket;
          Buffer.add_string buf ", ";
          Writer.int buf v;
          Buffer.add_char buf ']');
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
