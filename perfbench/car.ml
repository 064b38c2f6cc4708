(* The [car-drive] workload: the four-segment car at distributed
   placement, attacked by an alien station on the infotainment segment.

   Every measured drive runs in a fresh process ([bench.exe drive]):
   the simulator's speed falls as its heap and traces grow, so drives
   sharing a process would not measure the same thing.  A drive builds
   the car, drives [warmup_sim_s] of simulated time unmeasured, then
   [measured_sim_s] in [slice_sim_s] slices, each timed on the host.
   Its simulated statistics are exact for a seed; their digest is the
   correctness check.  Every drive of a seed does the same work slice
   by slice, so the parent can compare a slice across drives. *)

module V = Secpol_vehicle
module Tcar = V.Topology_car
module Can = Secpol_can
module Hpe = Secpol_hpe
module Sim = Secpol_sim
module Policy = Secpol_policy
module Gate = Secpol_par.Frame_gate

let warmup_sim_s = 1.0

let measured_sim_s = 10.0

let slice_sim_s = 0.01

(* Slices per 100 ms of simulated time, over which latency is taken. *)
let window_slices = 10

(* Slices per reference kernel timed between them (see [Calib]). *)
let calib_every = 10

(* Extra simulated time stepped event by event, to count events. *)
let stepped_sim_s = 1.0

(* The alien forges command frames whose designed consumers all live
   off the infotainment segment, so no copy of them may ever be
   delivered there. *)
let forged_ids =
  V.Messages.
    [|
      ecu_command;
      eps_command;
      engine_command;
      lock_command;
      modem_command;
      diag_request;
    |]

(* About a quarter of the segment: one frame every four frame-times,
   with a seeded jitter of +-5 % on the period. *)
let alien_period rng =
  let frame = Can.Frame.data_std V.Messages.ecu_command "\000" in
  let frame_time = Can.Frame.transmission_time frame ~bitrate:500_000.0 in
  4.0 *. frame_time *. (0.95 +. Sim.Rng.float rng 0.1)

let attach_alien car rng =
  let bus = Tcar.bus car V.Segment_map.seg_infotainment in
  let alien = Can.Node.create ~filters:[] ~name:"alien" bus in
  let sent = ref 0 in
  Sim.Engine.every (Tcar.sim car) ~period:(alien_period rng) (fun _ ->
      let id = Sim.Rng.pick rng forged_ids in
      let payload = String.make 1 (Char.chr (Sim.Rng.int rng 256)) in
      if Can.Node.send alien (Can.Frame.data_std id payload) then incr sent);
  sent

let hpes car =
  List.filter_map (fun (name, _) -> Tcar.hpe car name) (Tcar.nodes car)

let hpe_decisions car =
  List.fold_left
    (fun acc h ->
      acc + Hpe.Engine.read_grants h + Hpe.Engine.read_blocks h
      + Hpe.Engine.write_grants h + Hpe.Engine.write_blocks h)
    0 (hpes car)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let gateways car =
  let topo = Tcar.topology car in
  List.map (Can.Topology.gateway topo) (Can.Topology.gateway_names topo)

let traces car =
  List.map (fun seg -> Can.Bus.trace (Tcar.bus car seg)) (Tcar.segments car)

(* Simulated statistics of the whole drive.  Integers and the exact
   simulated busy times: identical for a seed on every host. *)
let counts car ~alien_sent =
  let segs = Tcar.segments car in
  let bus = Tcar.bus car in
  let per_seg name f =
    List.map (fun seg -> (Printf.sprintf "%s.%s" name seg, f seg)) segs
  in
  let latency_p99 seg =
    let h = Can.Bus.tx_latency (bus seg) in
    if Secpol_obs.Histogram.count h = 0 then 0.0
    else Secpol_obs.Histogram.percentile h 99.0
  in
  let i v = float_of_int v in
  [
    ("can.frames_sent", i (sum (fun s -> Can.Bus.frames_sent (bus s)) segs));
    ("can.retries", i (sum (fun s -> Can.Bus.retries (bus s)) segs));
    ("can.abandoned", i (sum (fun s -> Can.Bus.abandoned (bus s)) segs));
    ( "can.tx_latency_p99_ms",
      List.fold_left (fun m s -> Float.max m (latency_p99 s)) 0.0 segs );
    ("can.trace_entries", i (sum Can.Trace.length (traces car)));
    ("gateway.forwarded", i (sum Can.Gateway.forwarded (gateways car)));
    ("gateway.dropped", i (sum Can.Gateway.dropped (gateways car)));
    ("gateway.shed", i (sum Can.Gateway.shed (gateways car)));
    ("gateway.retries", i (sum Can.Gateway.retries (gateways car)));
    ("hpe.read_blocks", i (sum Hpe.Engine.read_blocks (hpes car)));
    ("hpe.write_blocks", i (sum Hpe.Engine.write_blocks (hpes car)));
    ("hpe.rate_blocks", i (sum Hpe.Engine.rate_blocks (hpes car)));
    ("hpe.spoof_alerts", i (sum Hpe.Engine.spoof_alerts (hpes car)));
    ("car.false_blocks", i (sum (Tcar.false_blocks_in car) segs));
    ("car.deliveries", i (Tcar.total_deliveries car));
    ("alien.sent", i alien_sent);
  ]
  @ per_seg "can.utilisation" (fun s -> Can.Bus.utilisation (bus s))

let digest counts =
  counts
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* Copies of a forged ID delivered on the infotainment segment: the
   attack succeeded if this is ever non-zero. *)
let forged_delivered car =
  Can.Trace.count
    (Can.Bus.trace (Tcar.bus car V.Segment_map.seg_infotainment))
    (fun e ->
      match (e.Can.Trace.event, e.Can.Trace.frame.Can.Frame.id) with
      | Can.Trace.Rx_delivered _, Can.Identifier.Standard id ->
          Array.mem id forged_ids
      | _ -> false)

(* ---------- the car's policy reload: re-provision every HPE ---------- *)

let reload car kind =
  let policy =
    match kind with
    | Mix.Hardened -> V.Policy_map.hardened ()
    | Mix.Baseline -> V.Policy_map.baseline ()
  in
  let t0 = Util.now_ns () in
  let db = V.Policy_map.compile policy in
  let t1 = Util.now_ns () in
  let table = Policy.Table.compile ~strategy:Policy.Table.Deny_overrides db in
  let t2 = Util.now_ns () in
  let engine = Policy.Engine.of_table table db in
  List.iter
    (fun (name, _) ->
      match Tcar.hpe car name with
      | None -> ()
      | Some h -> (
          Hpe.Registers.hard_reset (Hpe.Engine.registers h);
          let config =
            V.Policy_map.hpe_config_for engine ~mode:(Tcar.mode car) ~node:name
          in
          match Hpe.Engine.provision h config with
          | Ok () -> ()
          | Error e -> failwith ("HPE provisioning " ^ name ^ ": " ^ e)))
    (Tcar.nodes car);
  let t3 = Util.now_ns () in
  (t1 - t0, t2 - t1, t3 - t0)

(* ---------- per-layer replays (traced drives) ---------- *)

(* Fire events one at a time for [stepped_sim_s], counting them. *)
let step_events car =
  let sim = Tcar.sim car in
  let horizon = Sim.Engine.now sim +. stepped_sim_s in
  let t0 = Util.now_ns () in
  let events = ref 0 in
  while Sim.Engine.now sim < horizon && Sim.Engine.run_next sim do
    incr events
  done;
  (!events, Util.now_ns () - t0)

let max_replay = 20_000

let take n l = List.filteri (fun i _ -> i < n) l

(* Drive every transmitted frame of the drive (up to [max_replay])
   through the bit-level transceiver and back. *)
let transceiver_replay car =
  let frames =
    List.concat_map
      (fun tr ->
        List.filter_map
          (fun (e : Can.Trace.entry) ->
            if e.event = Can.Trace.Tx_ok then Some e.frame else None)
          (Can.Trace.entries tr))
      (traces car)
    |> take max_replay |> Array.of_list
  in
  let t0 = Util.now_ns () in
  let bad = ref 0 in
  Array.iter
    (fun f ->
      match Can.Transceiver.receive (Can.Transceiver.transmit f) with
      | Can.Transceiver.Frame g when Can.Frame.equal f g -> ()
      | _ -> incr bad)
    frames;
  (Array.length frames, Util.now_ns () - t0, !bad)

(* Every gate crossing of the drive (one Tx event per transmission
   attempt, one Rx event per reception), replayed through the per-node
   HPE bank. *)
let gate_replay car =
  let events =
    List.concat_map
      (fun tr ->
        List.map
          (fun (e : Can.Trace.entry) ->
            let event node dir =
              { Gate.time = e.time; node; dir; id = e.frame.Can.Frame.id }
            in
            match e.event with
            | Can.Trace.Tx_ok | Tx_error | Tx_abandoned | Tx_refused ->
                event e.node Gate.Tx
            | Rx_delivered r
            | Rx_filtered r
            | Rx_blocked (r, _)
            | Rx_line_error r ->
                event r Gate.Rx)
          (Can.Trace.entries tr))
      (traces car)
    |> take (10 * max_replay) |> Array.of_list
  in
  let engine = V.Policy_map.engine (V.Policy_map.baseline ()) in
  let configs =
    List.map
      (fun (node, _) ->
        (node, V.Policy_map.hpe_config_for engine ~mode:V.Modes.Normal ~node))
      (Tcar.nodes car)
  in
  let t0 = Util.now_ns () in
  ignore (Gate.run_sequential configs events);
  (Array.length events, Util.now_ns () - t0)

(* ---------- one drive (child process) ---------- *)

(* Runs in the child; prints "key value" lines for the parent. *)
let drive ~seed ~trace =
  let spans = Spans.create () in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let car_seed = Sim.Rng.bits64 rng in
  let alien_rng = Sim.Rng.split rng in
  let t0 = Util.now_ns () in
  let car = Tcar.create ~seed:car_seed ~placement:`Distributed () in
  let alien_sent = attach_alien car alien_rng in
  let built = Util.now_ns () in
  let root = Spans.fresh () in
  ignore (Spans.record spans ~parent:root ~msg:0 "car.build" t0 built);
  (* The car's policy reload, timed on the fresh car where no drive's
     heap inflates it; alternating, ending on the car's own baseline
     before any traffic flows. *)
  let reloads =
    Spans.time spans ~parent:root ~msg:0 "reload" (fun () ->
        List.init 20 (fun i ->
            reload car (if i mod 2 = 0 then Mix.Hardened else Mix.Baseline)))
  in
  let med f = Util.median (List.map (fun r -> float_of_int (f r)) reloads) in
  Spans.time spans ~parent:root ~msg:0 "warmup" (fun () ->
      Tcar.run car ~seconds:warmup_sim_s);
  let decisions0 = hpe_decisions car in
  let slices = int_of_float (Float.round (measured_sim_s /. slice_sim_s)) in
  let slice_ns = Array.make slices 0 in
  let calib_ns = Array.make (slices / calib_every) 0 in
  let m0 = Util.now_ns () in
  for i = 0 to slices - 1 do
    let s = Util.now_ns () in
    Tcar.run car ~seconds:slice_sim_s;
    let e = Util.now_ns () in
    slice_ns.(i) <- e - s;
    if i mod calib_every = calib_every - 1 then
      calib_ns.(i / calib_every) <- Calib.time_ns ();
    if trace then
      ignore (Spans.record spans ~parent:root ~msg:(i + 1) "sim.slice" s e)
  done;
  let host_ns = Util.now_ns () - m0 in
  let decisions = hpe_decisions car - decisions0 in
  let series k ns =
    print_string k;
    Array.iter (Printf.printf " %d") ns;
    print_newline ()
  in
  series "slice_ns" slice_ns;
  series "calib_ns" calib_ns;
  series "reload_ns"
    (Array.of_list (List.map (fun (_, _, total) -> total) reloads));
  let counts = counts car ~alien_sent:!alien_sent in
  let rss = Util.vmhwm_mib (Unix.getpid ()) in
  let out = ref [] in
  let emit k v = out := (k, v) :: !out in
  emit "built_ns" (float_of_int built);
  emit "host_s" (Util.ns_to_s host_ns);
  emit "sim_speed" (measured_sim_s /. Util.ns_to_s host_ns);
  emit "decisions" (float_of_int decisions);
  emit "peak_rss_mb" rss;
  emit "forged_delivered" (float_of_int (forged_delivered car));
  List.iter (fun (k, v) -> emit k v) counts;
  if trace then begin
    emit "reload.compile_ms" (med (fun (c, _, _) -> c) /. 1e6);
    emit "reload.table_ms" (med (fun (_, t, _) -> t) /. 1e6);
    let events, ns =
      Spans.time spans ~parent:root ~msg:0 "sim.step" (fun () ->
          step_events car)
    in
    emit "sim.events_per_sim_s" (float_of_int events /. stepped_sim_s);
    let per ns n = float_of_int ns /. float_of_int (max 1 n) in
    emit "sim.host_ns_per_event" (per ns events);
    let frames, ns, bad =
      Spans.time spans ~parent:root ~msg:0 "can.transceiver" (fun () ->
          transceiver_replay car)
    in
    emit "can.transceiver_ns_per_frame" (per ns frames);
    emit "transceiver_mismatches" (float_of_int bad);
    let events, ns =
      Spans.time spans ~parent:root ~msg:0 "hpe.gate" (fun () ->
          gate_replay car)
    in
    emit "hpe.gate_ns_per_event" (per ns events);
    ignore (Spans.record spans ~sid:root ~msg:0 "drive" t0 (Util.now_ns ()));
    let _, problems = Spans.self_times (Spans.merge [ spans ]) in
    emit "span_problems" (float_of_int (List.length problems));
    List.iter prerr_endline problems;
    Util.ensure_run_dir ();
    Spans.write
      (Filename.concat Util.run_dir "spans-car-drive.tsv")
      (Spans.merge [ spans ])
  end;
  print_string "digest ";
  print_endline (digest counts);
  List.iter (fun (k, v) -> Printf.printf "%s %.17g\n" k v) (List.rev !out)
