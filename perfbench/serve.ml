(* The [serve-ota] and [serve-bulk] workloads: [Secpol_serve.Daemon]
   with one worker domain in a process of its own ([daemon.exe]), driven
   over its Unix socket by this process — at most two threads and two
   connections.

   - serve-ota, open loop: one connection sends 16-request batches on a
     fixed 4 ms schedule, the other a verifier-gated reload every 250 ms
     (alternating hardened / baseline, rising versions), each ack
     followed by the fail-safe probe.  Latency runs from the due time.
   - serve-bulk, closed loop: one connection sends 32 seeded
     4096-request batches under hardened over and over, the next as
     soon as the last is answered.  The batches are encoded before the
     run.  Latency runs from the send.  Reloads happen only before the
     load, on the idle daemon.
     (With two connections the daemon settles run by run into more or
     fewer colliding batches, and the tail jumped between 4.9 and
     9.6 ms across seeds.) *)

module Wire = Secpol_serve.Wire
module Client = Secpol_serve.Client
module Policy = Secpol_policy

type workload = Ota | Bulk

let ota_batch = 16

let ota_period_ns = 4_000_000

let reload_period_ns = 250_000_000

let bulk_batch = 4096

let bulk_reloads = 21

let idle_reload_gap_s = 0.25

let warmup_s = 2.0

let setup_launches = 21

let rtt_probes = 200

(* What a traced run keeps for the in-process replay: enough batches
   for steady medians, few enough that the kept answers do not bloat the
   heap the replay runs on and the replay stays short. *)
let max_replayed_batches = 1000

let max_replayed_requests = 800_000

let kind_of_gen workload g =
  match workload with
  | Ota -> if g mod 2 = 1 then Mix.Hardened else Mix.Baseline
  | Bulk -> Mix.Hardened

let source_of_gen workload g = Mix.source (kind_of_gen workload g) ~version:g

(* ---------- the daemon process ---------- *)

type daemon = {
  pid : int;
  stdin_w : Unix.file_descr;
  stdout_r : Unix.file_descr;
  socket : string;
}

let launch ~policy_file ~socket =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "daemon.exe"
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; policy_file; socket |] r out_w Unix.stderr
  in
  Unix.close r;
  Unix.close out_w;
  { pid; stdin_w = w; stdout_r = out_r; socket }

(* Close the daemon's stdin and wait for it; returns its peak RSS and
   the median time of the reference computation in it (NaN if it timed
   none). *)
let stop d =
  let rss = Util.vmhwm_mib d.pid in
  Unix.close d.stdin_w;
  let deadline = Util.now_ns () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now_ns () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  let ic = Unix.in_channel_of_descr d.stdout_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let kernel_us =
    Option.value ~default:Float.nan (float_of_string_opt (String.trim out))
  in
  (rss, kernel_us)

(* From launch until the daemon answers its first decide. *)
let first_answer d req =
  let fd = Util.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Wire.output_msg fd (Wire.Decide_req { id = 0; reqs = [| req |] });
      match Wire.input_msg fd with
      | Wire.Decide_resp _ -> ()
      | m -> failwith ("first decide answered with " ^ Wire.type_name m))

(* ---------- per-thread accumulators ---------- *)

type phase = Warmup | Untraced | Traced

type acc = {
  mutable lat_untraced : (int * float) list;
      (** (due or send time, µs) per decide message *)
  mutable lat_traced : (int * float) list;
  mutable answered : int;  (** correct answers (requests), untraced phase *)
  mutable last_answer : int;  (** when the untraced phase's last answer came *)
  mutable lateness : float list;  (** µs, open loop only *)
  mutable replayed : Replay.event list;  (** newest first *)
  mutable reload_ms : (int * float) list;  (** (generation, ms) *)
  spans : Spans.buf;
}

let acc () =
  {
    lat_untraced = [];
    lat_traced = [];
    answered = 0;
    last_answer = 0;
    lateness = [];
    replayed = [];
    reload_ms = [];
    spans = Spans.create ();
  }

type window = { t0 : int; warm_end : int; untraced_end : int; traced_end : int }

let window ~seconds ~trace =
  let t0 = Util.now_ns () + 1_000_000 in
  let ns s = int_of_float (s *. 1e9) in
  let warm_end = t0 + ns warmup_s in
  let untraced_end =
    warm_end + ns (if trace then seconds /. 2.0 else seconds)
  in
  let traced_end = untraced_end + if trace then ns (seconds /. 2.0) else 0 in
  { t0; warm_end; untraced_end; traced_end }

let phase_of w t =
  if t < w.warm_end then Warmup
  else if t < w.untraced_end then Untraced
  else Traced

let record_latency a phase ~at us =
  match phase with
  | Warmup -> ()
  | Untraced -> a.lat_untraced <- (at, us) :: a.lat_untraced
  | Traced -> a.lat_traced <- (at, us) :: a.lat_traced

let keep_for_replay a phase (b : Mix.batch) ev =
  let batches = List.length a.replayed in
  if
    phase = Traced
    && batches < max_replayed_batches
    && batches * Array.length b.reqs < max_replayed_requests
  then
    a.replayed <- ev :: a.replayed

(* Check one decide answer; on success count it and return the
   attributed generation. *)
let check_answer check templates (b : Mix.batch) resp ~gens ~send ~recv =
  Check.attempt check;
  match resp with
  | Wire.Decide_resp { degraded = false; shed = false; allows; _ }
    when Array.length allows = Array.length b.reqs -> (
      match Check.batch check templates b allows ~gens ~send ~recv with
      | Some g -> Some (g, allows)
      | None ->
          Check.fail check "decide: answers match no candidate generation";
          None)
  | Wire.Decide_resp { degraded; shed; _ } ->
      Check.fail check
        (Printf.sprintf "decide: fail-safe answer (degraded=%b shed=%b)"
           degraded shed);
      None
  | m ->
      Check.fail check ("decide: unexpected " ^ Wire.type_name m);
      None

(* ---------- serve-ota: open loop ---------- *)

type sent = {
  due : int;
  send_start : int;
  encoded : int;
  mutable send_end : int;
  gen_lo : int;
  bix : int;
  phase : phase;
  sid : int;
}

type reload_state =
  | Idle
  | Reloading of { gen : int; sent : int }
  | Probing of { gen : int }

let probe_id = 0xFFFFFFFF

let run_ota d ~templates ~batches ~check ~seconds ~trace =
  let dfd = Util.connect d.socket and rfd = Util.connect d.socket in
  let w = window ~seconds ~trace in
  let count = ((w.traced_end - w.t0) / ota_period_ns) + 1 in
  let sent = Array.make count None in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  let acked = ref 1 and state = ref Idle in
  let sent_count = ref 0 and answered = ref 0 and stop = ref false in
  let probe_expected kind =
    Mix.expected
      (Array.to_list templates
      |> List.find (fun t -> t.Mix.req = Mix.failsafe_probe))
      kind
  in
  let reader_acc = acc () and lateness = ref [] in
  (* reader thread: every answer on both connections *)
  let on_decide payload recv =
    let resp = Wire.decode_payload payload in
    let decoded = Util.now_ns () in
    match resp with
    | Wire.Decide_resp { id; _ } when id < count && sent.(id) <> None ->
        let s = Option.get sent.(id) in
        while s.send_end = 0 do
          Thread.yield ()
        done;
        let gen_hi =
          locked (fun () ->
              match !state with Reloading _ -> !acked + 1 | _ -> !acked)
        in
        let gens =
          List.init (gen_hi - s.gen_lo + 1) (fun j ->
              let g = s.gen_lo + j in
              (g, kind_of_gen Ota g))
        in
        let b = batches.(s.bix) in
        (match
           check_answer check templates b resp ~gens ~send:s.send_start ~recv
         with
        | None -> ()
        | Some (g, allows) ->
            if s.phase = Untraced then begin
              reader_acc.answered <- reader_acc.answered + Array.length allows;
              reader_acc.last_answer <- decoded
            end;
            keep_for_replay reader_acc s.phase b
              (Replay.Decide { id; batch = b; gen = g; served = allows }));
        record_latency reader_acc s.phase ~at:s.due
          (float_of_int (decoded - s.due) /. 1e3);
        if s.phase = Traced then begin
          (* the answer can be read before the sender thread stamps the
             end of its write; the send then ends at the read *)
          let send_end = min s.send_end recv in
          let sp = reader_acc.spans in
          let span name a b =
            ignore (Spans.record sp ~parent:s.sid ~msg:id name a b)
          in
          span "client.encode" s.send_start s.encoded;
          span "client.send" s.encoded send_end;
          span "client.wait" send_end recv;
          span "client.decode" recv decoded;
          ignore
            (Spans.record sp ~sid:s.sid ~msg:id "client.msg" s.due decoded)
        end;
        incr answered
    | m ->
        Check.attempt check;
        Check.fail check ("decide connection: unexpected " ^ Wire.type_name m);
        incr answered
  in
  let on_reload payload recv =
    match (Wire.decode_payload payload, !state) with
    | Wire.Reload_resp { status = Wire.Swapped; _ }, Reloading { gen; sent = t }
      ->
        if phase_of w t = Untraced then
          reader_acc.reload_ms <-
            (gen, float_of_int (recv - t) /. 1e6) :: reader_acc.reload_ms;
        locked (fun () ->
            acked := gen;
            state := Probing { gen });
        Wire.output_msg rfd
          (Wire.Decide_req { id = probe_id; reqs = [| Mix.failsafe_probe |] })
    | Wire.Reload_resp { detail; _ }, Reloading _ ->
        Check.fail check ("reload not swapped: " ^ detail);
        locked (fun () -> state := Idle)
    | ( Wire.Decide_resp
          { allows = [| a |]; degraded = false; shed = false; _ },
        Probing { gen } ) ->
        Check.attempt check;
        if a <> probe_expected (kind_of_gen Ota gen) then
          Check.fail check
            (Printf.sprintf
               "stale after ack: fail-safe probe under generation %d" gen);
        locked (fun () -> state := Idle)
    | m, _ ->
        Check.fail check ("reload connection: unexpected " ^ Wire.type_name m);
        locked (fun () -> state := Idle)
  in
  let give_up = w.traced_end + 10_000_000_000 in
  let reader () =
    let finished () =
      locked (fun () -> !stop && !answered = !sent_count && !state = Idle)
    in
    try
      while (not (finished ())) && Util.now_ns () < give_up do
        match Unix.select [ dfd; rfd ] [] [] 0.05 with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | ready, _, _ ->
            List.iter
              (fun fd ->
                let payload = Util.recv_frame fd in
                let recv = Util.now_ns () in
                if fd = dfd then on_decide payload recv
                else on_reload payload recv)
              ready
      done
    with e -> Check.fail check ("answer reader: " ^ Printexc.to_string e)
  in
  let reader_thread = Thread.create reader () in
  let next_reload = ref (w.t0 + reload_period_ns) in
  let k = ref 0 in
  (try
     while w.t0 + (!k * ota_period_ns) < w.traced_end do
       let due = w.t0 + (!k * ota_period_ns) in
       Util.sleep_until_ns due;
       let start = Util.now_ns () in
       let phase = phase_of w due in
       if start >= !next_reload then begin
         let gen =
           locked (fun () ->
               match !state with
               | Idle ->
                   state := Reloading { gen = !acked + 1; sent = start };
                   Some (!acked + 1)
               | _ -> None)
         in
         Option.iter
           (fun gen ->
             Check.attempt check;
             next_reload := !next_reload + reload_period_ns;
             Wire.output_msg rfd
               (Wire.Reload_req
                  {
                    id = gen;
                    allow_widen = kind_of_gen Ota gen = Mix.Baseline;
                    source = source_of_gen Ota gen;
                  }))
           gen
       end;
       if phase <> Warmup then
         lateness := (float_of_int (start - due) /. 1e3) :: !lateness;
       let bix = !k mod Array.length batches in
       let sid = Spans.fresh () in
       let payload =
         Wire.encode_payload
           (Wire.Decide_req { id = !k; reqs = batches.(bix).reqs })
       in
       let encoded = Util.now_ns () in
       let s =
         {
           due;
           send_start = start;
           encoded;
           send_end = 0;
           gen_lo = locked (fun () -> !acked);
           bix;
           phase;
           sid;
         }
       in
       sent.(!k) <- Some s;
       locked (fun () -> incr sent_count);
       Util.send_frame dfd payload;
       let send_end = Util.now_ns () in
       s.send_end <- send_end;
       incr k
     done
   with e ->
     Check.fail check ("decide sender: " ^ Printexc.to_string e));
  locked (fun () -> stop := true);
  Thread.join reader_thread;
  if !state <> Idle then Check.fail check "reload: no answer";
  let unanswered = locked (fun () -> !sent_count - !answered) in
  for _ = 1 to unanswered do
    Check.attempt check;
    Check.fail check "decide: no answer"
  done;
  Unix.close dfd;
  Unix.close rfd;
  reader_acc.lateness <- !lateness;
  (reader_acc, w)

(* ---------- serve-bulk: closed loop ---------- *)

let run_bulk d ~templates ~batches ~check ~seconds ~trace ~gen =
  (* encoded once, so the generator spends its time waiting on the
     daemon, not building requests; each carries its batch index *)
  let payloads =
    Array.mapi
      (fun bix (b : Mix.batch) ->
        Wire.encode_payload (Wire.Decide_req { id = bix; reqs = b.reqs }))
      batches
  in
  let w = window ~seconds ~trace in
  let fd = Util.connect d.socket in
  let a = acc () in
  let k = ref 0 in
  (try
     while Util.now_ns () < w.traced_end do
       let bix = !k mod Array.length batches in
       let b : Mix.batch = batches.(bix) in
       let id = !k in
       let start = Util.now_ns () in
       let phase = phase_of w start in
       Util.send_frame fd payloads.(bix);
       let sent = Util.now_ns () in
       let reply = Util.recv_frame fd in
       let recv = Util.now_ns () in
       let resp =
         match Wire.decode_payload reply with
         | Wire.Decide_resp { id; _ } when id <> bix ->
             Wire.Error_resp { id; message = "answer to another batch" }
         | resp -> resp
       in
       let decoded = Util.now_ns () in
       (match
          check_answer check templates b resp
            ~gens:[ (gen, Mix.Hardened) ]
            ~send:start ~recv
        with
       | None -> ()
       | Some (g, allows) ->
           if phase = Untraced then begin
             a.answered <- a.answered + Array.length allows;
             a.last_answer <- decoded
           end;
           keep_for_replay a phase b
             (Replay.Decide { id; batch = b; gen = g; served = allows }));
       record_latency a phase ~at:start (float_of_int (decoded - start) /. 1e3);
       if phase = Traced then begin
         let sid = Spans.fresh () in
         let span name s e =
           ignore (Spans.record a.spans ~parent:sid ~msg:id name s e)
         in
         span "client.send" start sent;
         span "client.wait" sent recv;
         span "client.decode" recv decoded;
         ignore (Spans.record a.spans ~sid ~msg:id "client.msg" start decoded)
       end;
       incr k
     done
   with e -> Check.fail check ("bulk connection: " ^ Printexc.to_string e));
  Unix.close fd;
  (a, w)

(* ---------- serve-bulk's reloads, before the load ---------- *)

(* Reloads of hardened with rising versions on the idle daemon, spaced
   out so their median spans seconds of host speed rather than one
   instant of it; each ack is followed by the fail-safe probe.  Returns
   their latencies in ms; the daemon then serves generation
   [1 + bulk_reloads]. *)
let idle_reloads d check =
  let c = Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.init bulk_reloads (fun i ->
          Unix.sleepf idle_reload_gap_s;
          Check.attempt check;
          let t = Util.now_ns () in
          let r = Client.reload c (source_of_gen Bulk (i + 2)) in
          let ms = float_of_int (Util.now_ns () - t) /. 1e6 in
          if r.Client.status <> Wire.Swapped then
            Check.fail check ("idle reload not swapped: " ^ r.detail);
          Check.attempt check;
          if Client.decide_one c Mix.failsafe_probe then
            Check.fail check "stale after ack: fail-safe probe allowed";
          ms))

(* ---------- after the load: probes over one client connection ---------- *)

type probes = {
  empty_rtt_us : float list;
  daemon_counters : (string * float) list;
}

let probes d =
  let c = Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let empty_rtt_us =
        List.init rtt_probes (fun _ ->
            let t = Util.now_ns () in
            ignore (Client.decide c [||]);
            float_of_int (Util.now_ns () - t) /. 1e3)
      in
      let stats =
        match Policy.Json.of_string (Client.stats c) with
        | Ok j -> j
        | Error e -> failwith ("daemon stats: " ^ e)
      in
      let counter k =
        ( "daemon." ^ k,
          match Option.bind (Policy.Json.member k stats) Policy.Json.to_int with
          | Some v -> float_of_int v
          | None -> Float.nan )
      in
      {
        empty_rtt_us;
        daemon_counters =
          List.map counter
            [ "shed"; "failsafe"; "watchdog_trips"; "wire_errors" ];
      })

(* ---------- the workload ---------- *)

type outcome = {
  setup_s : float list;
  peak_rss_mb : float;
  kernel_us : float;  (** the daemon's median reference time, see [Calib] *)
  load : acc;
  load_window : window;
  idle_reload_ms : float list;  (** serve-bulk only *)
  probes : probes;
  replay : Replay.result option;
}

let run workload ~seed ~seconds ~trace =
  Util.ensure_run_dir ();
  let templates = Mix.templates () in
  let rng = Secpol_sim.Rng.create (Int64.of_int seed) in
  let batches =
    match workload with
    | Ota -> Mix.batches rng templates ~count:256 ~size:ota_batch
    | Bulk -> Mix.batches rng templates ~count:32 ~size:bulk_batch
  in
  let check = Check.create () in
  if not (Check.self_test templates batches.(0)) then
    Check.fail check "self-test: the oracle missed a flipped answer";
  let me = Unix.getpid () in
  let in_run_dir fmt =
    Printf.ksprintf (fun name -> Filename.concat Util.run_dir name) fmt
  in
  let policy_file = in_run_dir "policy-%d.secpol" me in
  Out_channel.with_open_bin policy_file (fun oc ->
      output_string oc (source_of_gen workload 1));
  let launch_timed i =
    let socket = in_run_dir "d%d-%d.sock" me i in
    let t0 = Util.now_ns () in
    let d = launch ~policy_file ~socket in
    (try first_answer d templates.(0).Mix.req
     with e ->
       ignore (stop d);
       raise e);
    (d, Util.ns_to_s (Util.now_ns () - t0))
  in
  let setups =
    List.init (setup_launches - 1) (fun i ->
        let d, s = launch_timed i in
        ignore (stop d);
        s)
  in
  let d, last = launch_timed setup_launches in
  let idle_reload_ms, load, load_window, probes, (peak_rss_mb, kernel_us) =
    Fun.protect
      ~finally:(fun () -> Sys.remove policy_file)
      (fun () ->
        match
          let idle, (load, w) =
            match workload with
            | Ota -> ([], run_ota d ~templates ~batches ~check ~seconds ~trace)
            | Bulk ->
                let idle = idle_reloads d check in
                ( idle,
                  run_bulk d ~templates ~batches ~check ~seconds ~trace
                    ~gen:(1 + bulk_reloads) )
          in
          (idle, load, w, probes d)
        with
        | idle, load, w, p -> (idle, load, w, p, stop d)
        | exception e ->
            ignore (stop d);
            raise e)
  in
  let replay =
    if not trace then None
    else
      let reloads =
        match workload with
        | Ota -> []
        | Bulk -> List.init bulk_reloads (fun i -> Replay.Reload (i + 2))
      in
      let events = reloads @ List.rev load.replayed in
      Some
        (Replay.run ~templates ~kind_of_gen:(kind_of_gen workload)
           ~source_of_gen:(source_of_gen workload) ~first_gen:1 events)
  in
  let violations = Check.budget_violations check in
  for _ = 1 to violations do
    Check.fail check "rated rule over budget"
  done;
  ( check,
    {
      setup_s = setups @ [ last ];
      peak_rss_mb;
      kernel_us;
      idle_reload_ms;
      load;
      load_window;
      probes;
      replay;
    } )
