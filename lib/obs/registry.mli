(** The telemetry registry: one namespace of counters, histograms, gauges
    and an event-trace ring, shared by every instrumented layer.

    Components either ask the registry for a metric by name (find or
    create) or register instruments they already own — the latter lets a
    component keep counting with zero overhead when no registry is
    attached, then expose the same counter instance once one is.

    Gauges are sampled lazily: a gauge is a closure evaluated only at
    snapshot time, so derived values (cache occupancy, bus utilisation)
    cost nothing between exports. *)

type t

val create : ?clock:(unit -> float) -> ?trace_capacity:int -> unit -> t
(** [clock] (default {!Clock.now}, the monotonic clock, in seconds)
    timestamps trace events and latency spans; inject a simulation clock
    to trace in sim time. *)

val clock : t -> unit -> float

val now : t -> float

val counter : t -> string -> Counter.t
(** Find or create. *)

val histogram :
  ?lo:float -> ?ratio:float -> ?buckets:int -> t -> string -> Histogram.t
(** Find or create; the layout arguments only apply on creation. *)

val trace : t -> Ring.t

val register_counter : t -> string -> Counter.t -> unit
(** Expose an existing counter under [name] (replaces any previous). *)

val register_histogram : t -> string -> Histogram.t -> unit

val register_gauge : t -> string -> (unit -> float) -> unit

val merge_into : into:t -> t -> unit
(** Fold [src]'s instruments into [into], name-wise: counter values are
    added into [into]'s counters (created when absent), histograms are
    bucket-merged ({!Histogram.merge}) into fresh instances — [src] is
    never aliased, so the source registry (e.g. one owned by a worker
    domain) can keep being written afterwards without corrupting the
    merged view.  This is how per-shard registries aggregate into one
    run-level registry after a parallel run.  Gauges and the event-trace
    ring are {e not} merged: a gauge is a closure over its owner's state,
    and trace entries are only meaningful on their own timeline — export
    those per shard instead.  Merging replaces [into]'s histogram
    {e bindings}; components holding direct references to a previously
    registered histogram keep their instance, but the registry now reports
    the merged copy.
    @raise Invalid_argument when same-named histograms have different
    bucket layouts. *)

val counters : t -> (string * Counter.t) list
(** Sorted by name. *)

val histograms : t -> (string * Histogram.t) list

val gauges : t -> (string * float) list
(** Sampled now, sorted by name. *)
