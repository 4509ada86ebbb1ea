(* The paper's published latency measurements (Tables 2 and 3), kept
   verbatim as the calibration reference.  [Cost_model] keeps its own
   calibrated constants; the test suite checks them against these
   tables, and the bench harness prints these as the "paper says"
   column. *)

(* ------------------------- Table 3 ------------------------------- *)
(* Local caches and memory latencies (cycles). *)

let table3 (p : Arch.platform_id) (lvl : Arch.cache_level) : int option =
  match (p, lvl) with
  | ((Arch.Opteron | Arch.Opteron2), Arch.L1) -> Some 3
  | ((Arch.Opteron | Arch.Opteron2), Arch.L2) -> Some 15
  | ((Arch.Opteron | Arch.Opteron2), Arch.LLC) -> Some 40
  | ((Arch.Opteron | Arch.Opteron2), Arch.RAM) -> Some 136
  | ((Arch.Xeon | Arch.Xeon2), Arch.L1) -> Some 5
  | ((Arch.Xeon | Arch.Xeon2), Arch.L2) -> Some 11
  | ((Arch.Xeon | Arch.Xeon2), Arch.LLC) -> Some 44
  | ((Arch.Xeon | Arch.Xeon2), Arch.RAM) -> Some 355
  | (Arch.Niagara, Arch.L1) -> Some 3
  | (Arch.Niagara, Arch.L2) -> None
  | (Arch.Niagara, Arch.LLC) -> Some 24
  | (Arch.Niagara, Arch.RAM) -> Some 176
  | (Arch.Tilera, Arch.L1) -> Some 2
  | (Arch.Tilera, Arch.L2) -> Some 11
  | (Arch.Tilera, Arch.LLC) -> Some 45
  | (Arch.Tilera, Arch.RAM) -> Some 118

(* ------------------------- Table 2 ------------------------------- *)
(* Latencies (cycles) of the cache coherence to load/store/CAS/FAI/TAS/
   SWAP a cache line depending on the MESI state and the distance.
   Rows are indexed by the platform's distance classes.  [None] marks
   combinations the paper does not report (e.g. Owned outside the
   Opteron). *)

type op_class = CLoad | CStore | CCas | CFai | CTas | CSwap

let op_class_of_memop : Arch.memop -> op_class = function
  | Arch.Load -> CLoad
  | Arch.Store -> CStore
  | Arch.Cas -> CCas
  | Arch.Fai -> CFai
  | Arch.Tas -> CTas
  | Arch.Swap -> CSwap

(* Opteron distance rows: same die / same MCM / one hop / two hops. *)
let opteron_table (op : op_class) (st : Arch.cstate) (d : Arch.distance) :
    int option =
  let row v =
    match d with
    | Arch.Same_die -> Some v.(0)
    | Arch.Same_mcm -> Some v.(1)
    | Arch.One_hop -> Some v.(2)
    | Arch.Two_hops -> Some v.(3)
    | Arch.Same_core | Arch.Max_hops -> None
  in
  match (op, st) with
  | (CLoad, Arch.Modified) -> row [| 81; 161; 172; 252 |]
  | (CLoad, Arch.Owned) -> row [| 83; 163; 175; 254 |]
  | (CLoad, Arch.Exclusive) -> row [| 83; 163; 175; 253 |]
  | (CLoad, Arch.Shared) -> row [| 83; 164; 176; 254 |]
  | (CLoad, Arch.Invalid) -> row [| 136; 237; 247; 327 |]
  | (CStore, Arch.Modified) -> row [| 83; 172; 191; 273 |]
  | (CStore, Arch.Owned) -> row [| 244; 255; 286; 291 |]
  | (CStore, Arch.Exclusive) -> row [| 83; 171; 191; 271 |]
  | (CStore, Arch.Shared) -> row [| 246; 255; 286; 296 |]
  | (CStore, Arch.Invalid) -> None
  | ((CCas | CFai | CTas | CSwap), Arch.Modified) -> row [| 110; 197; 216; 296 |]
  | ((CCas | CFai | CTas | CSwap), (Arch.Shared | Arch.Owned)) ->
      row [| 272; 283; 312; 332 |]
  | ((CCas | CFai | CTas | CSwap), (Arch.Exclusive | Arch.Invalid)) -> None

(* Xeon distance rows: same die / one hop / two hops. *)
let xeon_table (op : op_class) (st : Arch.cstate) (d : Arch.distance) :
    int option =
  let row v =
    match d with
    | Arch.Same_die -> Some v.(0)
    | Arch.One_hop -> Some v.(1)
    | Arch.Two_hops -> Some v.(2)
    | Arch.Same_core | Arch.Same_mcm | Arch.Max_hops -> None
  in
  match (op, st) with
  | (CLoad, Arch.Modified) -> row [| 109; 289; 400 |]
  | (CLoad, Arch.Exclusive) -> row [| 92; 273; 383 |]
  | (CLoad, Arch.Shared) -> row [| 44; 223; 334 |]
  | (CLoad, Arch.Invalid) -> row [| 355; 492; 601 |]
  | (CLoad, Arch.Owned) -> None
  | (CStore, Arch.Modified) -> row [| 115; 320; 431 |]
  | (CStore, Arch.Exclusive) -> row [| 115; 315; 425 |]
  | (CStore, Arch.Shared) -> row [| 116; 318; 428 |]
  | (CStore, (Arch.Owned | Arch.Invalid)) -> None
  | ((CCas | CFai | CTas | CSwap), Arch.Modified) -> row [| 120; 324; 430 |]
  | ((CCas | CFai | CTas | CSwap), Arch.Shared) -> row [| 113; 312; 423 |]
  | ((CCas | CFai | CTas | CSwap), (Arch.Owned | Arch.Exclusive | Arch.Invalid))
    ->
      None

(* Niagara distance rows: same core / other core. *)
let niagara_table (op : op_class) (st : Arch.cstate) (d : Arch.distance) :
    int option =
  let row (a, b) =
    match d with
    | Arch.Same_core -> Some a
    | Arch.Same_die -> Some b
    | _ -> None
  in
  match (op, st) with
  | (CLoad, (Arch.Modified | Arch.Exclusive | Arch.Shared)) -> row (3, 24)
  | (CLoad, Arch.Invalid) -> row (176, 176)
  | (CLoad, Arch.Owned) -> None
  | (CStore, (Arch.Modified | Arch.Exclusive | Arch.Shared)) -> row (24, 24)
  | (CStore, (Arch.Owned | Arch.Invalid)) -> None
  | (CCas, Arch.Modified) -> row (71, 66)
  | (CFai, Arch.Modified) -> row (108, 99)
  | (CTas, Arch.Modified) -> row (64, 55)
  | (CSwap, Arch.Modified) -> row (95, 90)
  | (CCas, Arch.Shared) -> row (76, 66)
  | (CFai, Arch.Shared) -> row (99, 99)
  | (CTas, Arch.Shared) -> row (67, 55)
  | (CSwap, Arch.Shared) -> row (93, 90)
  | ((CCas | CFai | CTas | CSwap), (Arch.Owned | Arch.Exclusive | Arch.Invalid))
    ->
      None

(* Tilera distance rows: one hop / max hops (10 mesh hops). *)
let tilera_table (op : op_class) (st : Arch.cstate) (d : Arch.distance) :
    int option =
  let row (a, b) =
    match d with
    | Arch.One_hop -> Some a
    | Arch.Max_hops -> Some b
    | _ -> None
  in
  match (op, st) with
  | (CLoad, (Arch.Modified | Arch.Exclusive | Arch.Shared)) -> row (45, 65)
  | (CLoad, Arch.Invalid) -> row (118, 162)
  | (CLoad, Arch.Owned) -> None
  | (CStore, (Arch.Modified | Arch.Exclusive)) -> row (57, 77)
  | (CStore, Arch.Shared) -> row (86, 106)
  | (CStore, (Arch.Owned | Arch.Invalid)) -> None
  | (CCas, Arch.Modified) -> row (77, 98)
  | (CFai, Arch.Modified) -> row (51, 71)
  | (CTas, Arch.Modified) -> row (70, 89)
  | (CSwap, Arch.Modified) -> row (63, 84)
  | (CCas, Arch.Shared) -> row (124, 142)
  | (CFai, Arch.Shared) -> row (82, 102)
  | (CTas, Arch.Shared) -> row (121, 141)
  | (CSwap, Arch.Shared) -> row (95, 115)
  | ((CCas | CFai | CTas | CSwap), (Arch.Owned | Arch.Exclusive | Arch.Invalid))
    ->
      None

(* Paper Table 2 lookup: latency of [op] on a line previously in state
   [st] held at distance class [d] from the requester. *)
let table2 (p : Arch.platform_id) (op : Arch.memop) (st : Arch.cstate)
    (d : Arch.distance) : int option =
  let oc = op_class_of_memop op in
  match p with
  | Arch.Opteron -> opteron_table oc st d
  | Arch.Xeon -> xeon_table oc st d
  | Arch.Niagara -> niagara_table oc st d
  | Arch.Tilera -> tilera_table oc st d
  | Arch.Opteron2 | Arch.Xeon2 -> None (* not reported by the paper *)

(* Section 8: cross-socket/intra-socket latency ratios measured on the
   small-scale multi-sockets. *)
let small_platform_cross_intra_ratio = function
  | Arch.Opteron2 -> Some 1.6
  | Arch.Xeon2 -> Some 2.7
  | Arch.Opteron | Arch.Xeon | Arch.Niagara | Arch.Tilera -> None

(* The distance classes each platform's Table 2 rows use, in paper
   column order. *)
let distance_classes = function
  | Arch.Opteron ->
      [ Arch.Same_die; Arch.Same_mcm; Arch.One_hop; Arch.Two_hops ]
  | Arch.Xeon -> [ Arch.Same_die; Arch.One_hop; Arch.Two_hops ]
  | Arch.Niagara -> [ Arch.Same_core; Arch.Same_die ]
  | Arch.Tilera -> [ Arch.One_hop; Arch.Max_hops ]
  | Arch.Opteron2 -> [ Arch.Same_die; Arch.One_hop ]
  | Arch.Xeon2 -> [ Arch.Same_die; Arch.One_hop ]
