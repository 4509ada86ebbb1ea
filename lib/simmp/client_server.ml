(* Client-server communication over libssmp channels (paper sections 4.1
   and 6.2): one server, N clients, a request and a response channel per
   client.  The server scans its receive buffers round-robin — while a
   buffer is empty and cached the scan probe is a local load, so polling
   many idle clients is cheap; a client's write invalidates its buffer
   line and the next probe misses, which is how "receive from any" works
   over cache coherence. *)


type t = {
  server_core : int;
  client_cores : int array;
  to_server : Channel.t array;
  to_client : Channel.t array;
  mutable scan_from : int; (* round-robin fairness cursor *)
}

let create mem platform ~server_core ~client_cores : t =
  let n = Array.length client_cores in
  if n = 0 then invalid_arg "Client_server.create: no clients";
  {
    server_core;
    client_cores;
    to_server =
      Array.init n (fun i ->
          Channel.create mem platform ~sender_core:client_cores.(i)
            ~receiver_core:server_core);
    to_client =
      Array.init n (fun i ->
          Channel.create mem platform ~sender_core:server_core
            ~receiver_core:client_cores.(i));
    scan_from = 0;
  }

let n_clients t = Array.length t.to_server

(* Server side: non-blocking scan for the next pending request. *)
let try_recv_any t : (int * int) option =
  let n = n_clients t in
  let rec scan k =
    if k = n then None
    else
      let i = (t.scan_from + k) mod n in
      match Channel.try_recv t.to_server.(i) with
      | Some v ->
          t.scan_from <- (i + 1) mod n;
          Some (i, v)
      | None -> scan (k + 1)
  in
  scan 0

(* Server side: blocking receive from any client. *)
let recv_any t : int * int =
  let rec loop () =
    match try_recv_any t with
    | Some r -> r
    | None ->
        Ssync_engine.Sim.pause 40;
        loop ()
  in
  loop ()

(* Server side: respond to client [i]. *)
let respond t i v = Channel.send t.to_client.(i) v

(* Client side: one-way request (no response expected). *)
let send_request t ~client v = Channel.send t.to_server.(client) v

(* Client side: round-trip request. *)
let request t ~client v =
  Channel.send t.to_server.(client) v;
  Channel.recv t.to_client.(client)

(* The paper's best hash-table configuration dedicates one server per
   three cores (section 6.3); exposed for the Figure 11 harness. *)
let default_server_share = 3
