(* Every hardware latency the simulator uses, in one place.

   The paper's measurements (Tables 2 and 3) are plain toplevel int
   arrays, one per paper row with its cells in the paper's column
   order, and [Cost_model] indexes these same arrays on every simulated
   access (a load, no allocation).
   Below them sits the overlay: the latencies the model needs for cases
   the paper never measures, bound by name for [Cost_model] to read, and
   [overlay], which lists each of them and each choice of paper cell the
   model makes where the paper has none, with its reason.  [table2] and
   [table3] are the paper lookups that the tests and the bench's
   "(paper)" columns read. *)

(* ------------------------- Table 3 ------------------------------- *)
(* Local caches and memory latencies (cycles), one array per level in
   the paper's column order: Opteron, Xeon, Niagara, Tilera.  -1 marks
   the Niagara's L2, which the paper does not report. *)

let l1 = [| 3; 5; 3; 2 |]
let l2 = [| 15; 11; -1; 11 |]
let llc = [| 40; 44; 24; 45 |]
let ram = [| 136; 355; 176; 118 |]

(* A platform's Table 3 column; the section 8 two-socket machines use
   their large siblings'. *)
let table3_col : Arch.platform_id -> int = function
  | Opteron | Opteron2 -> 0
  | Xeon | Xeon2 -> 1
  | Niagara -> 2
  | Tilera -> 3

let table3 (p : Arch.platform_id) (lvl : Arch.cache_level) : int option =
  let v =
    (match lvl with L1 -> l1 | L2 -> l2 | LLC -> llc | RAM -> ram).(table3_col p)
  in
  if v < 0 then None else Some v

(* ------------------------- Table 2 ------------------------------- *)
(* Latencies (cycles) of the cache coherence to load/store/CAS/FAI/TAS/
   SWAP a cache line depending on the MESI state and the distance.  A
   row the paper gives once for several states or operations is kept
   once. *)

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

(* The column of a distance class in a platform's rows: its position in
   [distance_classes].  A class the platform's topology never produces
   takes the nearest column, so the model's lookups are total. *)
let opteron_col : Arch.distance -> int = function
  | Same_core | Same_die -> 0
  | Same_mcm -> 1
  | One_hop -> 2
  | Two_hops | Max_hops -> 3

let xeon_col : Arch.distance -> int = function
  | Same_core | Same_die | Same_mcm -> 0
  | One_hop -> 1
  | Two_hops | Max_hops -> 2

let niagara_col : Arch.distance -> int = function Same_core -> 0 | _ -> 1
let tilera_col : Arch.distance -> int = function Max_hops -> 1 | _ -> 0

(* Opteron: same die / same MCM / one hop / two hops.  An atomic row
   holds for CAS, FAI, TAS and SWAP alike. *)
let opteron_load_m = [| 81; 161; 172; 252 |]
let opteron_load_o = [| 83; 163; 175; 254 |]
let opteron_load_e = [| 83; 163; 175; 253 |]
let opteron_load_s = [| 83; 164; 176; 254 |]
let opteron_load_i = [| 136; 237; 247; 327 |]
let opteron_store_m = [| 83; 172; 191; 273 |]
let opteron_store_o = [| 244; 255; 286; 291 |]
let opteron_store_e = [| 83; 171; 191; 271 |]
let opteron_store_s = [| 246; 255; 286; 296 |]
let opteron_atomic_m = [| 110; 197; 216; 296 |]
let opteron_atomic_s = [| 272; 283; 312; 332 |] (* Shared or Owned *)

(* Xeon: same die / one hop / two hops. *)
let xeon_load_m = [| 109; 289; 400 |]
let xeon_load_e = [| 92; 273; 383 |]
let xeon_load_s = [| 44; 223; 334 |]
let xeon_load_i = [| 355; 492; 601 |]
let xeon_store_m = [| 115; 320; 431 |]
let xeon_store_e = [| 115; 315; 425 |]
let xeon_store_s = [| 116; 318; 428 |]
let xeon_atomic_m = [| 120; 324; 430 |]
let xeon_atomic_s = [| 113; 312; 423 |]

(* Niagara: same core / other core. *)
let niagara_load = [| 3; 24 |] (* Modified, Exclusive or Shared *)
let niagara_load_i = [| 176; 176 |]
let niagara_store = [| 24; 24 |] (* Modified, Exclusive or Shared *)
let niagara_cas_m = [| 71; 66 |]
let niagara_fai_m = [| 108; 99 |]
let niagara_tas_m = [| 64; 55 |]
let niagara_swap_m = [| 95; 90 |]
let niagara_cas_s = [| 76; 66 |]
let niagara_fai_s = [| 99; 99 |]
let niagara_tas_s = [| 67; 55 |]
let niagara_swap_s = [| 93; 90 |]

(* Tilera: one hop / max hops (10 mesh hops). *)
let tilera_load = [| 45; 65 |] (* Modified, Exclusive or Shared *)
let tilera_load_i = [| 118; 162 |]
let tilera_store = [| 57; 77 |] (* Modified or Exclusive *)
let tilera_store_s = [| 86; 106 |]
let tilera_cas_m = [| 77; 98 |]
let tilera_fai_m = [| 51; 71 |]
let tilera_tas_m = [| 70; 89 |]
let tilera_swap_m = [| 63; 84 |]
let tilera_cas_s = [| 124; 142 |]
let tilera_fai_s = [| 82; 102 |]
let tilera_tas_s = [| 121; 141 |]
let tilera_swap_s = [| 95; 115 |]

(* The paper's rows for [op] on platform [p], by previous state in
   [Arch.cstate_index] order (Modified, Owned, Exclusive, Shared,
   Invalid); an empty row where the paper reports none. *)
let rows (p : Arch.platform_id) (op : Arch.memop) : int array array =
  match (p, op) with
  | (Opteron, Load) ->
      [| opteron_load_m; opteron_load_o; opteron_load_e; opteron_load_s; opteron_load_i |]
  | (Opteron, Store) ->
      [| opteron_store_m; opteron_store_o; opteron_store_e; opteron_store_s; [||] |]
  | (Opteron, _) -> [| opteron_atomic_m; opteron_atomic_s; [||]; opteron_atomic_s; [||] |]
  | (Xeon, Load) -> [| xeon_load_m; [||]; xeon_load_e; xeon_load_s; xeon_load_i |]
  | (Xeon, Store) -> [| xeon_store_m; [||]; xeon_store_e; xeon_store_s; [||] |]
  | (Xeon, _) -> [| xeon_atomic_m; [||]; [||]; xeon_atomic_s; [||] |]
  | (Niagara, Load) -> [| niagara_load; [||]; niagara_load; niagara_load; niagara_load_i |]
  | (Niagara, Store) -> [| niagara_store; [||]; niagara_store; niagara_store; [||] |]
  | (Niagara, Cas) -> [| niagara_cas_m; [||]; [||]; niagara_cas_s; [||] |]
  | (Niagara, Fai) -> [| niagara_fai_m; [||]; [||]; niagara_fai_s; [||] |]
  | (Niagara, Tas) -> [| niagara_tas_m; [||]; [||]; niagara_tas_s; [||] |]
  | (Niagara, Swap) -> [| niagara_swap_m; [||]; [||]; niagara_swap_s; [||] |]
  | (Tilera, Load) -> [| tilera_load; [||]; tilera_load; tilera_load; tilera_load_i |]
  | (Tilera, Store) -> [| tilera_store; [||]; tilera_store; tilera_store_s; [||] |]
  | (Tilera, Cas) -> [| tilera_cas_m; [||]; [||]; tilera_cas_s; [||] |]
  | (Tilera, Fai) -> [| tilera_fai_m; [||]; [||]; tilera_fai_s; [||] |]
  | (Tilera, Tas) -> [| tilera_tas_m; [||]; [||]; tilera_tas_s; [||] |]
  | (Tilera, Swap) -> [| tilera_swap_m; [||]; [||]; tilera_swap_s; [||] |]
  | ((Opteron2 | Xeon2), _) -> Array.make Arch.n_cstates [||] (* not reported *)

(* Paper Table 2 lookup: latency of [op] on a line previously in state
   [st] held at distance class [d] from the requester. *)
let table2 (p : Arch.platform_id) (op : Arch.memop) (st : Arch.cstate)
    (d : Arch.distance) : int option =
  let row = (rows p op).(Arch.cstate_index st) in
  if Array.length row = 0 || not (List.mem d (distance_classes p)) then None
  else
    Some
      row.(match p with
           | Opteron | Opteron2 -> opteron_col d
           | Xeon | Xeon2 -> xeon_col d
           | Niagara -> niagara_col d
           | Tilera -> tilera_col d)

(* Section 8: cross-socket/intra-socket latency ratios measured on the
   small-scale multi-sockets. *)
let opteron2_cross_intra = 1.6
let xeon2_cross_intra = 2.7

let small_platform_cross_intra_ratio = function
  | Arch.Opteron2 -> Some opteron2_cross_intra
  | Arch.Xeon2 -> Some xeon2_cross_intra
  | Arch.Opteron | Arch.Xeon | Arch.Niagara | Arch.Tilera -> None

(* ------------------------- Model overlay ------------------------- *)
(* Latencies (cycles) of cases the paper never measures. *)

let x86_owner_atomic = 20
let xeon_llc_dirty_load = 83
let opteron_store_fill_extra = 10
let opteron_atomic_fill_extra = 30
let xeon_store_fill_extra = 10
let xeon_atomic_fill_extra = 25
let niagara_atomic_fill_extra = 20
let tilera_store_fill_extra = 10
let tilera_atomic_fill_extra = 20
let tilera_home_fill = 108
let tilera_home_store = 20
let tilera_home_store_shared = 49

(* Each number above, and each paper cell the model reads for a case
   the paper does not report (or in place of the paper's own): (case,
   the case's numbers, reason). *)
let overlay : (string * int array * string) list =
  [
    ( "Opteron store on Exclusive: the store-on-Modified row", [||],
      "taking a line from its Exclusive holder invalidates and moves it as \
       from a Modified one; the paper's row is at most 2 cycles lower" );
    ( "atomic on Exclusive: the atomic-on-Modified row", [||],
      "the paper measures atomics on Modified and Shared lines only; an \
       Exclusive line is taken from its one holder as a Modified one is" );
    ( "Owned on the Xeon, Niagara and Tilera: the Shared row", [||],
      "only the Opteron's MOESI creates Owned; the arm keeps the model \
       total on views built by hand" );
    ( "owner's store on Modified/Exclusive: Table 3's L1 (x86), LLC \
       (Niagara), L2 (Tilera)", [||],
      "the paper reports load hits only; a store completes where it lands, \
       past the Niagara's and Tilera's write-through L1s" );
    ( "Niagara fill: Table 3's RAM; Niagara store: its LLC", [||],
      "uniform crossbar to a shared LLC: the paper's Invalid-load and store \
       rows equal those cells in both columns" );
    ( "x86 atomic by the Modified/Exclusive owner", [| x86_owner_atomic |],
      "a locked read-modify-write on the requester's own line: no paper \
       cell, but Figure 4's single-thread rates show ~20-cycle atomics" );
    ( "Xeon same-die load of a Modified line drained to the LLC",
      [| xeon_llc_dirty_load |],
      "an LLC hit plus the owner's back-invalidate; ccbench's fenced stores \
       never drain so. Figure 9's Xeon same-die one-way reads 215 (paper 214)" );
    ( "store on Invalid: the fill plus (Opteron, Xeon, Tilera)",
      [| opteron_store_fill_extra; xeon_store_fill_extra; tilera_store_fill_extra |],
      "the paper measures only loads on Invalid lines; a store also takes \
       ownership of the line it fills" );
    ( "atomic on Invalid: the fill plus (Opteron, Xeon, Niagara, Tilera)",
      [| opteron_atomic_fill_extra; xeon_atomic_fill_extra;
         niagara_atomic_fill_extra; tilera_atomic_fill_extra |],
      "the paper measures only loads on Invalid lines; an atomic also takes \
       ownership and runs its read-modify-write" );
    ( "Tilera load hit on the line's home tile: Table 3's L2", [||],
      "the requester's own L2 slice is the home; ccbench homes the line at \
       the holder, so the paper never measures it" );
    ( "Tilera on the line's home tile: fill, store, store on Shared",
      [| tilera_home_fill; tilera_home_store; tilera_home_store_shared |],
      "ccbench homes the line at the holder, so the paper never measures \
       it; 10 below the one-hop fill, 37 below the one-hop store rows" );
  ]
