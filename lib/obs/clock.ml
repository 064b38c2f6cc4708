external now : unit -> (float[@unboxed])
  = "secpol_clock_now_byte" "secpol_clock_now"
[@@noalloc]

external resolution_of_clock : unit -> float = "secpol_clock_resolution"

let elapsed_ns ~since = Float.max 0.0 ((now () -. since) *. 1e9)

let resolution = resolution_of_clock ()
