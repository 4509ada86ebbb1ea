(** A small deterministic PRNG (splitmix64-style): workloads are
    reproducible across runs and independent of the global [Random]
    state. *)

type t

val create : seed:int -> t
val int : t -> int -> int
(** Uniform in [\[0, bound)]; [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val bits53 : t -> int
(** The draw {!float} would scale: uniform in [\[0, 2^53)], and
    [float t < p] exactly when [bits53 t < ceil (p *. 2^53)]. *)

val advance : t -> int -> unit
(** [advance t n] moves the stream past its next [n] draws in O(1):
    afterwards [t] yields what it would after [n] calls of {!int},
    {!float} or {!bool}.  Raises [Invalid_argument] on negative [n]. *)

val copy : t -> t
(** An independent stream at the same position. *)

val blit : src:t -> dst:t -> unit
(** Move [dst] to [src]'s position. *)
