(* Shared architectural vocabulary for the four target platforms of the
   paper (Table 1).  Everything downstream — the coherence simulator, the
   lock suite, the benchmarks — speaks in these types. *)

type platform_id =
  | Opteron   (* 4-socket (8-die) AMD Magny-Cours, 48 cores, MOESI + probe filter *)
  | Xeon      (* 8-socket Intel Westmere-EX, 80 cores, MESIF (modeled as
                 MESI, see [cstate]), inclusive LLC *)
  | Niagara   (* Sun UltraSPARC-T2, 8 cores x 8 hw threads, uniform crossbar *)
  | Tilera    (* Tilera TILE-Gx36, 6x6 mesh, distributed LLC home tiles *)
  | Opteron2  (* 2-socket AMD Opteron 2384 (paper section 8) *)
  | Xeon2     (* 2-socket Intel Xeon X5660 (paper section 8) *)

let all_platform_ids = [ Opteron; Xeon; Niagara; Tilera; Opteron2; Xeon2 ]
let paper_platform_ids = [ Opteron; Xeon; Niagara; Tilera ]

let platform_name = function
  | Opteron -> "Opteron"
  | Xeon -> "Xeon"
  | Niagara -> "Niagara"
  | Tilera -> "Tilera"
  | Opteron2 -> "Opteron2"
  | Xeon2 -> "Xeon2"

let platform_of_string s =
  match String.lowercase_ascii s with
  | "opteron" -> Some Opteron
  | "xeon" -> Some Xeon
  | "niagara" -> Some Niagara
  | "tilera" -> Some Tilera
  | "opteron2" -> Some Opteron2
  | "xeon2" -> Some Xeon2
  | _ -> None

(* The memory operations whose latencies Table 2 reports.  [Cas_fai]
   (a fetch-and-increment built from a CAS retry loop, section 5.4) is a
   software construct and is expressed by the benchmarks, not here. *)
type memop =
  | Load
  | Store
  | Cas   (* compare-and-swap *)
  | Fai   (* fetch-and-increment *)
  | Tas   (* test-and-set *)
  | Swap  (* atomic exchange *)

let memop_name = function
  | Load -> "load"
  | Store -> "store"
  | Cas -> "CAS"
  | Fai -> "FAI"
  | Tas -> "TAS"
  | Swap -> "SWAP"

(* Cache-line states across the protocol variants used by the four
   platforms: MOESI (Opteron), MESI with a duplicate-tag directory
   (Niagara) or a distributed directory (Tilera), and MESI with
   closest-sharer sourcing on the Xeon.  The Xeon's hardware runs MESIF;
   its F state is folded into [Shared], as the paper does ("its effects
   are included in the load from shared case"): a Shared load is served
   by the closest sharer. *)
type cstate =
  | Modified
  | Owned      (* MOESI only *)
  | Exclusive
  | Shared
  | Invalid

let cstate_name = function
  | Modified -> "Modified"
  | Owned -> "Owned"
  | Exclusive -> "Exclusive"
  | Shared -> "Shared"
  | Invalid -> "Invalid"

let cstate_letter = function
  | Modified -> 'M'
  | Owned -> 'O'
  | Exclusive -> 'E'
  | Shared -> 'S'
  | Invalid -> 'I'

(* Local cache levels of Table 3. *)
type cache_level = L1 | L2 | LLC | RAM

let cache_level_name = function
  | L1 -> "L1"
  | L2 -> "L2"
  | LLC -> "LLC"
  | RAM -> "RAM"

(* Distance classes used by the paper's Tables 2 and Figure 6/9 columns.
   Each platform uses a subset. *)
type distance =
  | Same_core  (* two hw contexts of one physical core (Niagara) *)
  | Same_die   (* same die / same socket *)
  | Same_mcm   (* the two dies of one Opteron multi-chip module *)
  | One_hop
  | Two_hops
  | Max_hops   (* Tilera: the two most remote tiles *)

let distance_name = function
  | Same_core -> "same core"
  | Same_die -> "same die"
  | Same_mcm -> "same mcm"
  | One_hop -> "one hop"
  | Two_hops -> "two hops"
  | Max_hops -> "max hops"

(* The one numbering of the protocol states, in declaration order:
   [Memory]'s line table, [Profile]'s transition matrix and [Chrome]'s
   transfer-name cache all index by it. *)
let cstate_index : cstate -> int = function
  | Modified -> 0
  | Owned -> 1
  | Exclusive -> 2
  | Shared -> 3
  | Invalid -> 4

let cstate_of_index = [| Modified; Owned; Exclusive; Shared; Invalid |]
let n_cstates = Array.length cstate_of_index
