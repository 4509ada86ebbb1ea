(* Message-passing benchmarks of section 6.2: one-to-one latency by
   distance (Figure 9) and client-server throughput (Figure 10). *)

open Ssync_platform
open Ssync_engine
open Ssync_simmp

type one_to_one = { one_way : float; round_trip : float }

(* Figure 9: two cores exchange messages; one-way latency is the mean
   send-to-receive delay, round-trip the full ping-pong cycle. *)
let one_to_one ?prefetchw pid (distance : Arch.distance) : one_to_one option =
  let rounds = 100 in
  let p = Platform.get pid in
  match Topology.pair_at_distance p.Platform.topo distance with
  | None -> None
  | Some (a_core, b_core) ->
      let sim = Sim.create p in
      let mem = Sim.memory sim in
      let ab = Channel.create ?prefetchw mem p ~sender_core:a_core ~receiver_core:b_core in
      let ba = Channel.create ?prefetchw mem p ~sender_core:b_core ~receiver_core:a_core in
      let send_times = Array.make rounds 0 in
      let recv_times = Array.make rounds 0 in
      let rt_total = ref 0 in
      Sim.spawn sim ~core:a_core (fun () ->
          for i = 0 to rounds - 1 do
            let t0 = Sim.now () in
            send_times.(i) <- t0;
            Channel.send ab i;
            ignore (Channel.recv ba);
            rt_total := !rt_total + (Sim.now () - t0)
          done);
      Sim.spawn sim ~core:b_core (fun () ->
          for i = 0 to rounds - 1 do
            let v = Channel.recv ab in
            recv_times.(i) <- Sim.now ();
            Channel.send ba v
          done);
      ignore (Sim.run sim);
      let ow_total = ref 0 in
      for i = 0 to rounds - 1 do
        ow_total := !ow_total + (recv_times.(i) - send_times.(i))
      done;
      Some
        {
          one_way = float_of_int !ow_total /. float_of_int rounds;
          round_trip = float_of_int !rt_total /. float_of_int rounds;
        }

type cs_mode = One_way | Round_trip

(* Figure 10: total messages served per second by a single server as the
   client count grows.  In one-way mode clients stream requests; in
   round-trip mode each client blocks for the response. *)
let client_server ?(duration = 400_000) pid mode ~clients : float =
  let p = Platform.get pid in
  if clients + 1 > Platform.n_cores p then
    invalid_arg "Mp_bench.client_server: too many clients";
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let server_core = Platform.place p 0 in
  let client_cores = Array.init clients (fun i -> Platform.place p (i + 1)) in
  let cs = Client_server.create mem p ~server_core ~client_cores in
  let served = ref 0 in
  let b = Sim.make_barrier (clients + 1) in
  Sim.spawn sim ~core:server_core (fun () ->
      Sim.await b;
      let deadline = Sim.now () + duration in
      while Sim.now () < deadline do
        match Client_server.try_recv_any cs with
        | Some (i, v) ->
            incr served;
            if mode = Round_trip then Client_server.respond cs i v
        | None -> Sim.pause 30
      done);
  for i = 0 to clients - 1 do
    Sim.spawn sim ~core:client_cores.(i) (fun () ->
        Sim.await b;
        let deadline = Sim.now () + duration in
        while Sim.now () < deadline do
          match mode with
          | One_way -> Client_server.send_request cs ~client:i 42
          | Round_trip -> ignore (Client_server.request cs ~client:i 42)
        done)
  done;
  (* clients may block sending to a stopped server: bound the run *)
  ignore (Sim.run sim ~until:(duration * 4));
  Platform.mops p ~ops:!served ~cycles:duration

(* Section 5.3's claim: prefetchw makes Opteron message passing up to
   2.5x faster.  Returns (plain round-trip, prefetchw round-trip). *)
let opteron_prefetchw_speedup () : float * float =
  let get pfw =
    match one_to_one ~prefetchw:pfw Arch.Opteron Arch.Two_hops with
    | Some r -> r.round_trip
    | None -> nan
  in
  (get false, get true)
