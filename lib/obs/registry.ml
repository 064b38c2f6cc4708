type t = {
  clock : unit -> float;
  counters : (string, Counter.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  gauges : (string, unit -> float) Hashtbl.t;
  trace : Ring.t;
}

let create ?(clock = Clock.now) ?(trace_capacity = 512) () =
  {
    clock;
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    gauges = Hashtbl.create 8;
    trace = Ring.create ~capacity:trace_capacity ();
  }

let clock t = t.clock

let now t = t.clock ()

let trace t = t.trace

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = Counter.create () in
      Hashtbl.replace t.counters name c;
      c

let histogram ?lo ?ratio ?buckets t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = Histogram.create ?lo ?ratio ?buckets () in
      Hashtbl.replace t.histograms name h;
      h

let register_counter t name c = Hashtbl.replace t.counters name c

let register_histogram t name h = Hashtbl.replace t.histograms name h

let register_gauge t name f = Hashtbl.replace t.gauges name f

let merge_into ~into src =
  Hashtbl.iter
    (fun name c -> Counter.add (counter into name) (Counter.value c))
    src.counters;
  Hashtbl.iter
    (fun name h ->
      match Hashtbl.find_opt into.histograms name with
      | None -> Hashtbl.replace into.histograms name (Histogram.copy h)
      | Some existing ->
          Hashtbl.replace into.histograms name (Histogram.merge existing h))
    src.histograms

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters

let histograms t = sorted_bindings t.histograms

let gauges t = List.map (fun (n, f) -> (n, f ())) (sorted_bindings t.gauges)
