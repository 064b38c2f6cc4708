(* Clock, order statistics, framing and result printing shared by the
   workloads. *)

(* CLOCK_MONOTONIC in nanoseconds: every span, latency and due time in
   the benchmark is on this clock (it is system-wide, so readings from
   different domains and processes compare). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ns_to_s ns = float_of_int ns *. 1e-9

let sleep_until_ns t =
  let d = t - now_ns () in
  if d > 0 then try Unix.sleepf (ns_to_s d) with Unix.Unix_error _ -> ()

(* ---------- order statistics ---------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array ([p] in 0..100); NaN when
   empty, so a missing sample can never read as a measurement of 0. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile l p = percentile_sorted (sorted l) p

let median l = percentile l 50.0

(* Reloads alternate between two policies of different cost.  The plain
   median of such samples sits on the edge between the two clusters and
   can flip from one to the other between runs; this is the mean of the
   two kinds' medians instead.  A sample's kind is the parity of its
   key (a generation or a reload index). *)
let kind_medians samples =
  let of_kind k =
    median
      (List.filter_map
         (fun (i, v) -> if i mod 2 = k then Some v else None)
         samples)
  in
  (of_kind 0, of_kind 1)

let median_of_alternating samples =
  match kind_medians samples with
  | m, k when Float.is_nan k -> m
  | k, m when Float.is_nan k -> m
  | a, b -> (a +. b) /. 2.0

(* The [p] percentile of each one-second window of [(time_ns, value)]
   samples, then the median over the windows: a host slowdown that
   lasts less than half the run moves it little.  Windows with fewer
   than 20 samples (a ragged end) are left out. *)
let windowed_percentile ~from samples p =
  let windows = Hashtbl.create 64 in
  List.iter
    (fun (at, v) ->
      let k = (at - from) / 1_000_000_000 in
      let prev = Option.value ~default:[] (Hashtbl.find_opt windows k) in
      Hashtbl.replace windows k (v :: prev))
    samples;
  median
    (Hashtbl.fold
       (fun _ vs acc ->
         if List.length vs < 20 then acc else percentile vs p :: acc)
       windows [])

(* ---------- process memory ---------- *)

(* Peak resident set ([VmHWM]) of a live process, in MiB. *)
let vmhwm_mib pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
                 float_of_int kb /. 1024.0))
      |> Option.value ~default:Float.nan

(* ---------- framing (the daemon's [u32 le length | payload]) ---------- *)

(* [Wire.output_msg] and [Wire.input_msg] encode and decode inside the
   I/O call; these move raw payloads, so encode, transfer and decode can
   be timed apart and batches can be encoded ahead of the run. *)

let rec really_write fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    really_write fd buf (off + n) (len - n)
  end

let rec really_read fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then raise End_of_file;
    really_read fd buf (off + n) (len - n)
  end

let send_frame fd payload =
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  really_write fd frame 0 (4 + len)

let recv_frame fd =
  let header = Bytes.create 4 in
  really_read fd header 0 4;
  let len = Int32.to_int (Bytes.get_int32_le header 0) land 0xFFFFFFFF in
  let payload = Bytes.create len in
  really_read fd payload 0 len;
  Bytes.unsafe_to_string payload

(* Connect to the daemon's socket, retrying every 0.1 ms while it is
   still starting: a coarser retry would quantise the set-up time. *)
let connect ?(timeout_s = 30.0) path =
  let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when now_ns () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0001;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

(* ---------- run directory ---------- *)

(* Everything a run writes (sockets, policy files, span dumps) lives
   under this directory of the checkout. *)
let run_dir = "_perfbench"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755

(* ---------- result ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ = unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = Printf.sprintf "%S" s

(* The last line of standard output: the machine-readable result. *)
let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
