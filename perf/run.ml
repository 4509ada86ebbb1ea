(* Running a plan: passes in plan order, and judging every job against
   its golden digest and its invariant. *)

type job_run = {
  job : Plan.job;
  wall_s : float;
  pace_s : float;  (** the pace kernel's time, run right after the job *)
  outcome : (Plan.outcome, string) result;  (** [Error] = the job raised *)
}

type pass = { pass_s : float; runs : job_run array }

(* Closed loop: each job starts when the previous one has finished. *)
let pass ?spans plan =
  let t0 = Unix.gettimeofday () in
  let runs =
    Array.map
      (fun job ->
        let t = Unix.gettimeofday () in
        let outcome =
          try Ok (Plan.run ?spans job) with e -> Error (Printexc.to_string e)
        in
        let wall_s = Unix.gettimeofday () -. t in
        { job; wall_s; pace_s = Pace.kernel (); outcome })
      plan
  in
  { pass_s = Unix.gettimeofday () -. t0; runs }

(* Job wall times rescaled to the nominal host pace. *)
let rescaled p =
  Pace.rescale
    (Array.map (fun r -> r.wall_s) p.runs)
    (Array.map (fun r -> r.pace_s) p.runs)

let outcomes p =
  Array.to_list p.runs
  |> List.filter_map (fun r ->
         match r.outcome with Ok o -> Some (r.job, o) | Error _ -> None)

(* ------------------------------------------------------------------ *)
(* Golden digests: one line per job, "<digest>" or, on observed jobs,
   "<digest> <export digest>". *)

let golden_dir = "perf/golden"

let golden_path w ~seed =
  Filename.concat golden_dir (Printf.sprintf "%s.%d" (Plan.name w) seed)

let golden_line (o : Plan.outcome) =
  if o.Plan.export_digest = "" then Plan.digest o
  else Plan.digest o ^ " " ^ o.Plan.export_digest

let load_golden w ~seed =
  let path = golden_path w ~seed in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rec lines acc =
      match input_line ic with
      | l -> lines (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    let l = lines [] in
    close_in ic;
    Some (Array.of_list l)
  end

let save_golden w ~seed p =
  let oc = open_out (golden_path w ~seed) in
  Array.iter
    (fun r ->
      match r.outcome with
      | Ok o -> output_string oc (golden_line o ^ "\n")
      | Error e -> failwith ("cannot record a job that raised: " ^ e))
    p.runs;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Judging *)

type verdict = { attempted : int; failures : (int * string) list }

(* Every job of [p] is one attempted operation, and so is the export of
   each observed job.  A job fails if it raised, broke its invariant or
   its digest differs from [golden]; an export fails if its digest
   differs. *)
let judge ?golden p =
  let attempted = ref 0 and failures = ref [] in
  let fail i what = failures := (i, what) :: !failures in
  Array.iteri
    (fun i r ->
      let observed = r.job.Plan.observed in
      attempted := !attempted + if observed then 2 else 1;
      (* the golden line's fields: digest, then the export's digest *)
      let line =
        Option.map
          (fun g ->
            if i < Array.length g then String.split_on_char ' ' g.(i) else [])
          golden
      in
      match r.outcome with
      | Error e ->
          fail i ("raised " ^ e);
          if observed then fail i "not exported"
      | Ok o ->
          (if o.Plan.observed_value <> o.Plan.expected then
             fail i
               (Printf.sprintf "invariant: %d, expected %d"
                  o.Plan.observed_value o.Plan.expected)
           else
             match line with
             | Some (d :: _) when d = Plan.digest o -> ()
             | Some _ -> fail i "digest differs from the golden one"
             | None -> ());
          if observed then
            match line with
            | Some [ _; e ] when e = o.Plan.export_digest -> ()
            | Some _ -> fail i "export digest differs from the golden one"
            | None -> ())
    p.runs;
  { attempted = !attempted; failures = List.rev !failures }

let merge vs =
  {
    attempted = List.fold_left (fun n v -> n + v.attempted) 0 vs;
    failures = List.concat_map (fun v -> v.failures) vs;
  }

let fail_rate v =
  float_of_int (List.length v.failures) /. float_of_int (max 1 v.attempted)
