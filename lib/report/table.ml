(* Fixed-width ASCII tables for the bench harness: every paper table and
   figure is printed as rows of aligned columns, optionally with the
   paper's reference value alongside the measured one. *)

type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | Some a ->
        if List.length a <> List.length headers then
          invalid_arg "Table.create: aligns/headers length mismatch";
        a
    | None -> List.map (fun _ -> Right) headers
  in
  { headers; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong arity";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

(* Build a table from precomputed rows in one call — the natural shape
   for renders that print results a planning phase already computed. *)
let of_rows ?aligns headers rows =
  let t = create ?aligns headers in
  List.iter (add_row t) rows;
  t

let render t : string =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let widths =
    List.mapi
      (fun i _ ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all)
      t.headers
  in
  let line row =
    String.concat "  "
      (List.map2 (fun (a, w) c -> pad a w c) (List.combine t.aligns widths) row)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line t.headers :: sep :: List.map line rows)

let print t = print_endline (render t)

(* Format helpers used throughout the bench harness. *)
let fcell1 f = Printf.sprintf "%.1f" f

(* "measured (paper)" comparison cell. *)
let vs_paper ~measured ~paper =
  match paper with
  | None -> string_of_int measured
  | Some p -> Printf.sprintf "%d (%d)" measured p
