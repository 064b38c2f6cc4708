(* The repository benchmark.

     bench.exe --workload serve-ota|serve-bulk|car-drive --seed N
               --seconds S --trace 0|1

   prints a readable report, then, as its last line, one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  Exits 1 when any correctness check fails.  See
   README.md in this directory.

     bench.exe drive SEED 0|1          one car drive (a child process)
     bench.exe record-digests FROM TO  car digests of a seed range *)

module Sim = Secpol_sim
module Policy = Secpol_policy

let say fmt = Printf.printf (fmt ^^ "\n%!")

let pcts name unit_ l =
  let a = Util.sorted l in
  say "%-28s p50 %.1f  p90 %.1f  p99 %.1f  max %.1f %s  (n=%d)" name
    (Util.percentile_sorted a 50.0) (Util.percentile_sorted a 90.0)
    (Util.percentile_sorted a 99.0)
    (Util.percentile_sorted a 100.0)
    unit_ (Array.length a)

(* Every metric of BENCHMARK.json, in order: a workload reports 0 for a
   layer it does no work in. *)
let per_layer_names =
  [
    ("wire.decode_ns_per_req", "ns");
    ("wire.encode_ns_per_req", "ns");
    ("wire.bytes_per_req", "bytes");
    ("transport.empty_rtt_us", "us");
    ("partition.ns_per_req", "ns");
    ("partition.minor_words_per_req", "words");
    ("pool.handoff_us", "us");
    ("pool.await_us", "us");
    ("batch.fill_ns_per_req", "ns");
    ("batch.minor_words_per_req", "words");
    ("decide.ns_per_req", "ns");
    ("decide.minor_words_per_req", "words");
    ("table.buckets", "count");
    ("table.folded_buckets", "count");
    ("table.modes_interned", "count");
    ("reload.compile_ms", "ms");
    ("reload.verify_ms", "ms");
    ("reload.table_ms", "ms");
    ("reload.swap_us", "us");
    ("daemon.shed", "count");
    ("daemon.failsafe", "count");
    ("daemon.watchdog_trips", "count");
    ("daemon.wire_errors", "count");
    ("serve.unattributed_us", "us");
    ("trace.overhead_us", "us");
    ("host.kernel_us", "us");
    ("gen.lateness_p50_us", "us");
    ("gen.lateness_max_us", "us");
    ("sim.events_per_sim_s", "1/sim-s");
    ("sim.host_ns_per_event", "ns");
    ("can.transceiver_ns_per_frame", "ns");
    ("hpe.gate_ns_per_event", "ns");
    ("can.frames_sent", "count");
    ("can.retries", "count");
    ("can.utilisation.powertrain", "fraction");
    ("can.utilisation.chassis", "fraction");
    ("can.utilisation.infotainment", "fraction");
    ("can.utilisation.telematics", "fraction");
    ("can.tx_latency_p99_ms", "ms");
    ("gateway.forwarded", "count");
    ("gateway.dropped", "count");
    ("gateway.shed", "count");
    ("gateway.retries", "count");
    ("hpe.read_blocks", "count");
    ("hpe.write_blocks", "count");
    ("hpe.spoof_alerts", "count");
    ("car.false_blocks", "count");
    ("can.trace_entries", "count");
  ]

let per_layer values =
  List.map
    (fun (name, unit_) ->
      Util.metric name unit_
        (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer_names

(* One saturated 500 kbit/s CAN segment carries about 4000 frames a
   second: a served decision rate in those units is the CAN time a
   decision point keeps up with per host second. *)
let can_segment_rate = 4000.0

let end_to_end ~setup ~decisions ~p50 ~reload ~sim_speed ~rss =
  [
    Util.metric "setup_s" "s" setup;
    Util.metric "decisions_per_s" "1/s" decisions;
    Util.metric "latency_p50_us" "us" p50;
    Util.metric "reload_p50_ms" "ms" reload;
    Util.metric "sim_speed" "sim-s/host-s" sim_speed;
    Util.metric "peak_rss_mb" "MiB" rss;
  ]

(* ---------- serve-* ---------- *)

let serve workload ~seed ~seconds ~trace =
  let check, o = Serve.run workload ~seed ~seconds ~trace in
  let load = o.Serve.load in
  let w = o.load_window in
  (* from the first due time of the measured phase to its last answer *)
  let untraced_s = Util.ns_to_s (load.last_answer - w.warm_end) in
  let windowed l p = Util.windowed_percentile ~from:w.warm_end l p in
  let p50 = windowed load.lat_untraced 50.0 in
  (* serve-ota: answers per wall second.  serve-bulk's one connection
     sends a batch as soon as the last is answered: its rate at the
     median answer time.  A total over the run would count every
     moment the host took the cores away from the daemon. *)
  let decisions =
    match workload with
    | Serve.Ota -> float_of_int load.answered /. untraced_s
    | Serve.Bulk -> float_of_int Serve.bulk_batch /. (p50 *. 1e-6)
  in
  (* Set-up and reloads are CPU-bound work of the daemon: scaled to the
     reference host speed by the kernel timed in the daemon (see
     [Calib]).  Decide latency is mostly sleeping and waking: not
     scaled. *)
  let scale = Calib.scale o.kernel_us in
  say "host speed scale             %.4f  (daemon's reference kernel %.1f us)"
    scale o.kernel_us;
  let setup = Util.median o.setup_s *. scale in
  say "setup_s                      %.4f  (unscaled median of %d launches %.4f)"
    setup (List.length o.setup_s) (Util.median o.setup_s);
  pcts "latency, pooled (untraced)" "us" (List.map snd load.lat_untraced);
  if trace then
    pcts "latency, pooled (traced)" "us" (List.map snd load.lat_traced);
  say "decisions_per_s              %.1f  (%d correct answers in %.4f s)"
    decisions load.answered untraced_s;
  if workload = Serve.Ota then pcts "generator lateness" "us" load.lateness;
  let reloads =
    match workload with
    | Serve.Ota -> load.reload_ms
    | Serve.Bulk -> List.map (fun ms -> (0, ms)) o.idle_reload_ms
  in
  pcts "reload (send -> ack)" "ms" (List.map snd reloads);
  let reload = Util.median_of_alternating reloads *. scale in
  let even, odd = Util.kind_medians reloads in
  say
    "reload_p50_ms                %.3f  (unscaled: mean of the medians %.3f, \
     %.3f)"
    reload even odd;
  pcts "empty decide round trip" "us" o.probes.empty_rtt_us;
  List.iter (fun (k, v) -> say "%-28s %.0f" k v) o.probes.daemon_counters;
  say "peak_rss_mb (daemon)         %.1f" o.peak_rss_mb;
  say "latency_p50_us               %.1f  (median over 1-s windows)" p50;
  let metrics =
    if not trace then
      end_to_end ~setup ~decisions ~p50 ~reload
        ~sim_speed:(decisions /. can_segment_rate) ~rss:o.peak_rss_mb
    else begin
      let r = Option.get o.replay in
      let selfs, problems = Spans.self_times (load.spans.spans @ r.spans) in
      List.iter
        (fun p ->
          Check.attempt check;
          Check.fail check ("trace: " ^ p))
        problems;
      Check.attempt check;
      if r.mismatches > 0 then
        Check.fail check
          (Printf.sprintf "replay: %d answers differ from the served ones"
             r.mismatches);
      Spans.write
        (Filename.concat Util.run_dir
           (match workload with
           | Serve.Ota -> "spans-serve-ota.tsv"
           | Serve.Bulk -> "spans-serve-bulk.tsv"))
        (load.spans.spans @ r.spans);
      let self name = Spans.median_self selfs name /. 1e3 in
      let replayed =
        [
          "wire.decode"; "partition"; "pool.job"; "batch.fill"; "decide";
          "wire.encode";
        ]
      in
      let replayed_sum =
        List.fold_left (fun acc s -> acc +. self s) 0.0 replayed
      in
      let unattributed = p50 -. replayed_sum in
      let traced_p50 = windowed load.lat_traced 50.0 in
      say "stage self times, median us per message (%d replayed batches):"
        (List.length r.batches);
      List.iter
        (fun s ->
          if not (Float.is_nan (self s)) then
            say "  client  %-22s %10.2f" s (self s))
        [
          "client.msg"; "client.encode"; "client.send"; "client.wait";
          "client.decode";
        ];
      List.iter (fun s -> say "  replay  %-22s %10.2f" s (self s)) replayed;
      say "  replayed stages sum            %10.2f" replayed_sum;
      say "  latency_p50_us (untraced)      %10.2f" p50;
      say "  serve.unattributed_us          %10.2f" unattributed;
      say "  latency_p50_us (traced)        %10.2f  tracing overhead %.2f us"
        traced_p50 (traced_p50 -. p50);
      let bs = r.batches in
      let per_req f =
        Util.median
          (List.map
             (fun (b : Replay.batch_stats) -> f b /. float_of_int b.n)
             bs)
      in
      let med f = Util.median (List.map f bs) in
      let i = float_of_int in
      let rmed f = Util.median (List.map (fun x -> i (f x)) r.reloads) in
      let total f =
        i (List.fold_left (fun a (b : Replay.batch_stats) -> a + f b) 0 bs)
      in
      let table =
        Policy.Table.stats
          (Policy.Table.compile ~strategy:Replay.strategy
             (Mix.db_of_source (Mix.source Mix.Hardened ~version:1)))
      in
      per_layer
        ([
           ("wire.decode_ns_per_req", per_req (fun b -> i b.decode_ns));
           ("wire.encode_ns_per_req", per_req (fun b -> i b.encode_ns));
           ( "wire.bytes_per_req",
             total (fun b -> b.bytes) /. total (fun b -> b.n) );
           ("transport.empty_rtt_us", Util.median o.probes.empty_rtt_us);
           ("partition.ns_per_req", per_req (fun b -> i b.partition_ns));
           ("partition.minor_words_per_req", per_req (fun b -> b.partition_mw));
           ("pool.handoff_us", med (fun b -> i b.handoff_ns) /. 1e3);
           ("pool.await_us", med (fun b -> i b.job_ns) /. 1e3);
           ("batch.fill_ns_per_req", per_req (fun b -> i b.fill_ns));
           ("batch.minor_words_per_req", per_req (fun b -> b.fill_mw));
           ("decide.ns_per_req", per_req (fun b -> i b.decide_ns));
           ("decide.minor_words_per_req", per_req (fun b -> b.decide_mw));
           ("table.buckets", i table.buckets);
           ("table.folded_buckets", i (table.folded + table.mode_folded));
           ("table.modes_interned", i table.modes);
           ("reload.compile_ms", rmed (fun x -> x.Replay.compile_ns) /. 1e6);
           ("reload.verify_ms", rmed (fun x -> x.Replay.verify_ns) /. 1e6);
           ("reload.table_ms", rmed (fun x -> x.Replay.table_ns) /. 1e6);
           ("reload.swap_us", rmed (fun x -> x.Replay.swap_ns) /. 1e3);
           ("serve.unattributed_us", unattributed);
           ("trace.overhead_us", traced_p50 -. p50);
           ("host.kernel_us", o.kernel_us);
         ]
        @ o.probes.daemon_counters
        @
        (* a closed loop has no schedule to fall behind *)
        match workload with
        | Serve.Ota ->
            [
              ("gen.lateness_p50_us", Util.percentile load.lateness 50.0);
              ("gen.lateness_max_us", Util.percentile load.lateness 100.0);
            ]
        | Serve.Bulk -> [])
    end
  in
  (check.Check.attempted, check.failed, List.rev check.reasons, metrics)

(* ---------- car-drive ---------- *)

let recorded_digest seed =
  let path = "perfbench/digests.txt" in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ s; d ] when int_of_string_opt s = Some seed -> Some d
             | _ -> None)

(* The start-up probe (see [Calib]): ms from launch until built. *)
let spawn_probe () =
  let exe = Sys.executable_name in
  let launched = Util.now_ns () in
  let ic = Unix.open_process_args_in exe [| exe; "probe" |] in
  let built = In_channel.input_all ic in
  if Unix.close_process_in ic <> Unix.WEXITED 0 then
    failwith "probe: child process failed";
  float_of_int (int_of_string (String.trim built) - launched) /. 1e6

(* One drive in a fresh process: its "key value" lines and digest. *)
let spawn_drive ~seed ~trace =
  let exe = Sys.executable_name in
  let launched = Util.now_ns () in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "drive"; string_of_int seed; (if trace then "1" else "0") |]
  in
  let lines = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  if status <> Unix.WEXITED 0 then failwith "drive: child process failed";
  let digest = ref "" and values = ref [] and series = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "digest"; d ] -> digest := d
      | [ k; v ] -> values := (k, float_of_string v) :: !values
      | ("slice_ns" | "reload_ns" | "calib_ns") as k :: vs
        ->
          series := (k, Array.of_list (List.map float_of_string vs)) :: !series
      | _ -> ())
    (String.split_on_char '\n' lines);
  let get k = Option.value ~default:Float.nan (List.assoc_opt k !values) in
  let setup = Util.ns_to_s (int_of_float (get "built_ns") - launched) in
  values := ("setup_s", setup) :: !values;
  (!digest, get, fun k -> List.assoc k !series)

let car ~seed ~seconds ~trace =
  let check = Check.create () in
  let recorded = recorded_digest seed in
  let first = ref None in
  let probes = ref [] in
  let drive ~trace =
    probes := spawn_probe () :: !probes;
    Check.attempt check;
    match spawn_drive ~seed ~trace with
    | exception e ->
        Check.fail check ("drive: " ^ Printexc.to_string e);
        None
    | digest, get, series ->
        let expect =
          match (recorded, !first) with
          | Some d, _ | None, Some d -> d
          | None, None -> digest
        in
        if !first = None then first := Some digest;
        let problems =
          List.filter_map
            (fun (bad, why) -> if bad then Some why else None)
            [
              ( digest <> expect,
                "statistics digest " ^ digest ^ " <> " ^ expect );
              (get "forged_delivered" <> 0.0, "a forged frame was delivered");
              (get "car.false_blocks" <> 0.0, "designed traffic was blocked");
              (not (get "alien.sent" > 0.0), "the alien sent nothing");
              ( trace && get "transceiver_mismatches" <> 0.0,
                "transceiver round trip" );
              (trace && get "span_problems" <> 0.0, "trace spans malformed");
            ]
        in
        List.iter (fun p -> Check.fail check ("drive: " ^ p)) problems;
        Some (get, series)
  in
  (* the first drive warms the page cache and is not measured *)
  ignore (drive ~trace:false);
  let deadline = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop i acc =
    if i >= 3 && Util.now_ns () >= deadline then List.rev acc
    else
      let traced = trace && i mod 2 = 1 in
      loop (i + 1)
        (match drive ~trace:traced with
        | Some d -> (traced, d) :: acc
        | None -> acc)
  in
  let drives = loop 0 [] in
  let med ?(traced = false) k =
    Util.median
      (List.filter_map
         (fun (t, (get, _)) -> if t = traced then Some (get k) else None)
         drives)
  in
  (* Host timings: every untraced drive does the same work slice by
     slice (and reload by reload), so each slice is timed as its fastest
     run over the drives.  A slice that lost the core to another tenant
     is slow in one drive, not in all of them.  The timings are then
     scaled to the reference host speed (see [Calib]). *)
  let fastest ?(traced = false) k =
    let runs =
      List.filter_map
        (fun (t, (_, series)) -> if t = traced then Some (series k) else None)
        drives
    in
    Array.mapi
      (fun i x -> List.fold_left (fun m a -> Float.min m a.(i)) x runs)
      (List.hd runs)
  in
  let us ns = Array.to_list (Array.map (fun ns -> ns /. 1e3) ns) in
  let calib_us = us (fastest "calib_ns") in
  let scale = Calib.scale (Util.median calib_us) in
  let per_slice = Array.map (fun ns -> ns *. scale) (fastest "slice_ns") in
  let host_s = Array.fold_left ( +. ) 0.0 per_slice *. 1e-9 in
  let sim_speed = Car.measured_sim_s /. host_s in
  let decisions = med "decisions" /. host_s in
  (* 100 ms of simulated time at a time: a 10 ms slice's work depends on
     which of the ECUs' periods end in it, and so on the seed *)
  let window_us per_slice =
    let n = Car.window_slices in
    List.init
      (Array.length per_slice / n)
      (fun w ->
        Array.fold_left ( +. ) 0.0 (Array.sub per_slice (w * n) n) /. 1e3)
  in
  let latency_us = window_us per_slice in
  let reloads =
    List.mapi
      (fun i ns -> (i, ns *. scale /. 1e6))
      (Array.to_list (fastest "reload_ns"))
  in
  let reload_ms = Util.median_of_alternating reloads in
  let setup_scale = Calib.startup_reference_ms /. Util.median !probes in
  let setup = med "setup_s" *. setup_scale in
  say "drives                       %d measured (+1 warmup), %.0f sim-s each"
    (List.length drives) Car.measured_sim_s;
  say
    "setup_s                      %.4f  (unscaled median over drives %.4f; \
     start-up probe median %.3f ms)"
    setup (med "setup_s") (Util.median !probes);
  pcts "reference kernel" "us" calib_us;
  say "host speed scale             %.4f  (reference %.0f us)" scale
    Calib.reference_us;
  say
    "sim_speed                    %.2f sim-s/host-s  (unscaled %.2f, median \
     drive %.2f)"
    sim_speed (sim_speed *. scale) (med "sim_speed");
  pcts "host time per 100 ms sim" "us" latency_us;
  say "decisions_per_s (HPE gates)  %.0f" decisions;
  let hardened, baseline = Util.kind_medians reloads in
  say
    "reload (re-provision HPEs)   %.3f ms  (mean of the medians %.3f, %.3f of \
     %d reloads)"
    reload_ms hardened baseline (List.length reloads);
  say "peak_rss_mb (simulator)      %.1f" (med "peak_rss_mb");
  say "digest                       %s%s"
    (Option.value ~default:"-" !first)
    (match recorded with
    | Some _ -> " (recorded)"
    | None -> " (seed not recorded)");
  let metrics =
    if not trace then
      end_to_end ~setup ~decisions ~p50:(Util.median latency_us)
        ~reload:reload_ms ~sim_speed
        ~rss:(med "peak_rss_mb")
    else
      let t k = med ~traced:true k in
      per_layer
        ([
           ( "trace.overhead_us",
             Util.median
               (window_us
                  (Array.map
                     (fun ns -> ns *. scale)
                     (fastest ~traced:true "slice_ns")))
             -. Util.median latency_us );
           ("host.kernel_us", Util.median calib_us);
         ]
        @ List.map
            (fun k -> (k, t k *. scale))
            [
              "reload.compile_ms"; "reload.table_ms"; "sim.host_ns_per_event";
              "can.transceiver_ns_per_frame"; "hpe.gate_ns_per_event";
            ]
        @ List.map
            (fun k -> (k, t k))
            [
              "sim.events_per_sim_s"; "can.frames_sent"; "can.retries";
              "can.utilisation.powertrain"; "can.utilisation.chassis";
              "can.utilisation.infotainment"; "can.utilisation.telematics";
              "can.tx_latency_p99_ms"; "gateway.forwarded"; "gateway.dropped";
              "gateway.shed"; "gateway.retries"; "hpe.read_blocks";
              "hpe.write_blocks"; "hpe.spoof_alerts"; "car.false_blocks";
              "can.trace_entries";
            ])
  in
  (check.Check.attempted, check.failed, List.rev check.reasons, metrics)

(* ---------- command line ---------- *)

let seeded_streams_agree seed =
  let draw () =
    let templates = Mix.templates () in
    Array.map
      (fun (b : Mix.batch) -> b.tmpl)
      (Mix.batches
         (Sim.Rng.create (Int64.of_int seed))
         templates ~count:4 ~size:64)
  in
  draw () = draw ()

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-ota|serve-bulk|car-drive --seed N \
     --seconds S --trace 0|1";
  exit 2

let main args =
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let seed =
    match int_of_string_opt (get "seed") with Some s -> s | None -> usage ()
  in
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0.0 -> s
    | _ -> usage ()
  in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let workload = get "workload" in
  say "workload %s  seed %d  seconds %g  trace %b" workload seed seconds trace;
  let attempted, failed, reasons, metrics =
    match workload with
    | "serve-ota" -> serve Serve.Ota ~seed ~seconds ~trace
    | "serve-bulk" -> serve Serve.Bulk ~seed ~seconds ~trace
    | "car-drive" -> car ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let attempted, failed =
    if seeded_streams_agree seed then (attempted + 1, failed)
    else (attempted + 1, failed + 1)
  in
  say "checks: %d attempted, %d failed (failed_share %.6f)" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter (fun r -> say "  failure: %s" r) reasons;
  let correct = failed = 0 in
  Util.print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "probe" ] ->
      ignore (Calib.build ());
      print_int (Util.now_ns ())
  | [ "drive"; seed; trace ] ->
      Car.drive ~seed:(int_of_string seed) ~trace:(trace = "1")
  | [ "record-digests"; lo; hi ] ->
      for seed = int_of_string lo to int_of_string hi do
        let digest, _, _ = spawn_drive ~seed ~trace:false in
        Printf.printf "%d %s\n%!" seed digest
      done
  | args -> main args
