(** Counter / gauge / histogram registry with per-component namespacing.

    Names are dotted paths ("core.block_cache.hits",
    "synth.ep.in_order.ns"); the first segment is the owning component.
    Three kinds of instruments:

    - {b counters} — mutable ints a component increments directly. The
      record is returned once at registration; the hot path touches only
      the record, never the hashtable.
    - {b probes} — pull gauges: a closure sampled at {!snapshot} time.
      Components that already keep their own statistics (cache models,
      the block cache, the rollback journal) export them this way at
      zero runtime cost.
    - {b histograms} — {!Hist.t}, for latency distributions.

    {!snapshot} deep-copies everything, so a snapshot is isolated from
    later increments and from {!reset}. *)

type counter = { mutable n : int }

type value = Int of int | Float of float

type t = {
  counters : (string, counter) Hashtbl.t;
  probes : (string, unit -> value) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 64; probes = Hashtbl.create 64; hists = Hashtbl.create 16 }

(** [counter t name] — find or create. Call once, keep the record. *)
let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { n = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr (c : counter) = c.n <- c.n + 1
let add (c : counter) k = c.n <- c.n + k
let get (c : counter) = c.n

(** [probe t name f] — register a pull gauge. The first registration of
    a name wins: when several interfaces share one registry (a profile
    that runs auxiliary passes), the primary interface keeps ownership
    of the shared gauge names it registered first. *)
let probe t name f =
  if not (Hashtbl.mem t.probes name) then Hashtbl.add t.probes name f

(** [drop_probes t ~prefix] unregisters every probe whose name starts
    with [prefix]: for a component that replaces the one that registered
    them (a supervised session's demoted interface), which the
    first-registration rule would otherwise leave reading the old one. *)
let drop_probes t ~prefix =
  Hashtbl.fold
    (fun name _ acc -> if String.starts_with ~prefix name then name :: acc else acc)
    t.probes []
  |> List.iter (Hashtbl.remove t.probes)

(** [histogram t name] — find or create. Call once, keep the record. *)
let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.replace t.hists name h;
    h

(** [merge ~into src] folds [src] into [into]: counters add, histograms
    merge bucket-by-bucket ({!Hist.merge}), probes transfer under the
    usual first-registration-wins rule. Counters and histograms stay
    exact under any partition of the work — this is the join step for
    per-domain registries after a parallel campaign. [src] is left
    untouched. *)
let merge ~into src =
  Hashtbl.iter
    (fun name (c : counter) ->
      let c' = counter into name in
      c'.n <- c'.n + c.n)
    src.counters;
  Hashtbl.iter (fun name f -> probe into name f) src.probes;
  Hashtbl.iter
    (fun name h -> Hist.merge ~into:(histogram into name) h)
    src.hists

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type item = Value of value | Histogram of Hist.t

type snapshot = (string * item) list  (** sorted by name *)

let snapshot t : snapshot =
  let acc = ref [] in
  Hashtbl.iter (fun name c -> acc := (name, Value (Int c.n)) :: !acc) t.counters;
  Hashtbl.iter (fun name f -> acc := (name, Value (f ())) :: !acc) t.probes;
  Hashtbl.iter
    (fun name h -> acc := (name, Histogram (Hist.copy h)) :: !acc)
    t.hists;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(** [find snap name] — the snapshotted item, if present. *)
let find (snap : snapshot) name = List.assoc_opt name snap

(** [find_int snap name] — integer value of a counter or int probe;
    [None] for other kinds or when absent. *)
let find_int snap name =
  match find snap name with Some (Value (Int n)) -> Some n | _ -> None

(** [reset t] zeroes counters and histograms (probes re-sample their
    component on the next snapshot; resetting the component is the
    component's business). *)
let reset t =
  Hashtbl.iter (fun _ c -> c.n <- 0) t.counters;
  Hashtbl.iter (fun _ h -> Hist.reset h) t.hists
