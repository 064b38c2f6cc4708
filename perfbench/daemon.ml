(* The decision daemon under test, in a process of its own:

     daemon.exe POLICY_FILE SOCKET_PATH

   Serves POLICY_FILE through [Secpol_serve.Daemon] with one worker
   domain until its standard input closes, then stops cleanly.  Tying
   the lifetime to stdin means the daemon cannot outlive the benchmark
   that launched it, whatever way that process ends.  Meanwhile its main
   thread times the reference computation of [Calib] every 100 ms, in
   this process's heap, and prints the median time (µs) on exit. *)

module Daemon = Secpol_serve.Daemon

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: daemon.exe POLICY_FILE SOCKET_PATH";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let source = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  match Secpol_policy.Compile.of_source source with
  | Error e ->
      prerr_endline ("daemon: policy does not compile: " ^ e);
      exit 2
  | Ok db ->
      let config =
        { Daemon.default_config with socket_path = Sys.argv.(2); domains = 1 }
      in
      let d = Daemon.start ~config db in
      let samples = ref [] in
      let rec serve () =
        match Unix.select [ Unix.stdin ] [] [] 0.1 with
        | [], _, _ ->
            samples := (float_of_int (Calib.time_ns ()) /. 1e3) :: !samples;
            serve ()
        | _ -> (
            match input_line stdin with
            | _ -> serve ()
            | exception End_of_file -> ())
      in
      serve ();
      Daemon.stop d;
      Printf.printf "%.17g\n" (Util.median !samples)
