(** Set-associative cache model with true-LRU replacement. Only hit/miss
    behaviour and latency are modelled — the functional simulator owns all
    data. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
  miss_penalty : int;
}

(** 16 KiB 2-way / 16 KiB 4-way, 64-byte lines. *)
val l1i_default : config

val l1d_default : config

type t

(** @raise Invalid_argument unless the set count is a power of two. *)
val create : config -> t

val reset : t -> unit

(** [access t addr] is [true] on hit; updates LRU state and statistics.
    [addr] is a native-int address ({!Machine.Memory.addr_int}), so a
    timing model holding it unboxed calls the cache without allocating. *)
val access : t -> int -> bool

(** [latency t addr] combines an access with the configured latencies. *)
val latency : t -> int -> int

val miss_rate : t -> float

(** [(accesses, misses)] since creation or {!reset}. *)
val stats : t -> int64 * int64
