(** Monotonic nanosecond clock for latency attribution.

    Backed by the [clock_gettime(CLOCK_MONOTONIC)] stub that Bechamel
    ships ([@@noalloc], unboxed int64), so a timestamp costs one C call
    and no allocation. One call still costs about as much as an
    entrypoint crossing (about 60 ns on the reference host), so observed
    interfaces time a sample of crossings ({!Sample}), not each one. *)

let now_ns : unit -> int64 = Monotonic_clock.now

(** [elapsed_ns t0] — nanoseconds since [t0], clamped to an OCaml int
    (63 bits hold ~292 years of nanoseconds). *)
let elapsed_ns (t0 : int64) : int = Int64.to_int (Int64.sub (now_ns ()) t0)

(** [now ()] — the same clock as an OCaml int, so a timestamp held
    across calls is never boxed; differences of two [now] readings are
    nanoseconds. *)
let[@inline] now () = Int64.to_int (now_ns ())
