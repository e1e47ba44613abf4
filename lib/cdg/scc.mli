(** Strongly-connected-component condensation of a {!Cdg.t} (iterative
    Tarjan, O(V+E)) — the front end of the SCC layer-assignment engine
    (DESIGN.md §17). Any directed cycle of a CDG lies entirely inside one
    SCC, so condensing once per layer certifies every singleton component
    acyclic for free and confines cycle breaking to the non-trivial
    components, which are mutually independent. The walk reads the CDG's
    CSR rows by slot index and allocates one frame per channel pushed. *)

type t = {
  comp_of : int array;  (** channel -> component id, [0 .. num_comps) *)
  num_comps : int;
  nontrivial : int array array;
      (** members of each component that can still hold a cycle — size
          >= 2, or a singleton with a self-dependency. Members sorted
          ascending; components ordered by smallest member. Both orders
          (and [comp_of]) are deterministic for a given CDG. *)
}

(** [of_cdg cdg] condenses the live edges of [cdg].
    Channels with no live edges form singleton components. *)
val of_cdg : Cdg.t -> t
