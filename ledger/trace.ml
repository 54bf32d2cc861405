(** Spans recorded at layer boundaries, from outside the simulator: the
    ledger times its own calls into each layer's public functions.

    A span accumulates every call of one name within one cell: count,
    total host ns and the ns of spans opened while it was active (its
    children), so self time = total - children. Block-level and coarser
    calls additionally emit one Chrome-trace event each (at most
    [events_per_span] per cell, so memory stays bounded on long runs);
    per-instruction calls ([run_one], [step], [retire], [consume], OS
    calls) only roll up into their cell's span, which emits one event
    when the cell ends. Events go to an {!Obs.Ring} and are written with
    {!Obs.Export.chrome_of_events}. *)

type kind = Each | Rolled

type span = {
  id : int;
  name : string;
  kind : kind;
  parent : int;
  mutable count : int;
  mutable total : int;
  mutable child : int;
  mutable first : int64;
  mutable events : int;
}

(** Totals over a run for one span name. *)
type agg = { mutable calls : int; mutable ns : int; mutable self : int }

type t = {
  ring : Obs.Ring.t;
  mutable next_id : int;
  mutable cell : int;
  mutable stack : span list;  (** active spans, innermost first *)
  mutable spans : span list;  (** spans of the current cell *)
  aggs : (string, agg) Hashtbl.t;
  mutable min_self : int;
  mutable n_spans : int;
}

let events_per_span = 32

let create () =
  {
    ring = Obs.Ring.create ~capacity:(1 lsl 17);
    next_id = 1;
    cell = 0;
    stack = [];
    spans = [];
    aggs = Hashtbl.create 64;
    min_self = max_int;
    n_spans = 0;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(** [span t kind name] opens an accumulator in the current cell, parented
    to the innermost active span. *)
let span t kind name =
  let parent = match t.stack with p :: _ -> p.id | [] -> 0 in
  let s =
    {
      id = fresh_id t;
      name;
      kind;
      parent;
      count = 0;
      total = 0;
      child = 0;
      first = 0L;
      events = 0;
    }
  in
  t.spans <- s :: t.spans;
  s

let args t ~id ~parent extra =
  Obs.Ring.
    [ ("cell", I (Int64.of_int t.cell)); ("span", I (Int64.of_int id));
      ("parent", I (Int64.of_int parent)) ]
  @ extra

let finish t s t0 =
  let d = Obs.Clock.elapsed_ns t0 in
  (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
  s.count <- s.count + 1;
  s.total <- s.total + d;
  let parent =
    match t.stack with
    | p :: _ ->
      p.child <- p.child + d;
      p.id
    | [] -> 0
  in
  if s.kind = Each && s.events < events_per_span then begin
    s.events <- s.events + 1;
    Obs.Ring.record t.ring ~ts_ns:t0 ~dur_ns:d ~name:s.name ~cat:"ledger"
      ~args:(args t ~id:s.id ~parent [])
  end

(** [call t s f x] runs [f x] inside span [s]. *)
let call t s f x =
  let t0 = Obs.Clock.now_ns () in
  if s.count = 0 then s.first <- t0;
  t.stack <- s :: t.stack;
  match f x with
  | r ->
    finish t s t0;
    r
  | exception e ->
    finish t s t0;
    raise e

(** [cell t name f] runs [f ()] as cell [name]: a root span that every
    span opened inside it descends from. *)
let cell t name f =
  t.cell <- t.cell + 1;
  let saved = t.spans in
  t.spans <- [];
  let root = span t Each name in
  let finally () =
    List.iter
      (fun s ->
        let self = s.total - s.child in
        if s.count > 0 then begin
          t.min_self <- min t.min_self self;
          t.n_spans <- t.n_spans + 1
        end;
        if s.kind = Rolled && s.count > 0 then
          Obs.Ring.record t.ring ~ts_ns:s.first ~dur_ns:s.total ~name:s.name
            ~cat:"ledger"
            ~args:
              (args t ~id:s.id ~parent:s.parent
                 Obs.Ring.
                   [ ("count", I (Int64.of_int s.count));
                     ("self_ns", I (Int64.of_int self)) ]);
        let key = if s == root then "cell" else s.name in
        let a =
          match Hashtbl.find_opt t.aggs key with
          | Some a -> a
          | None ->
            let a = { calls = 0; ns = 0; self = 0 } in
            Hashtbl.add t.aggs key a;
            a
        in
        a.calls <- a.calls + s.count;
        a.ns <- a.ns + s.total;
        a.self <- a.self + self)
      t.spans;
    t.spans <- saved
  in
  match call t root f () with
  | r ->
    finally ();
    r
  | exception e ->
    finally ();
    raise e

let agg t name =
  Option.value ~default:{ calls = 0; ns = 0; self = 0 } (Hashtbl.find_opt t.aggs name)

let write t path =
  let oc = open_out path in
  Obs.Export.to_channel oc (Obs.Export.chrome_of_events (Obs.Ring.to_list t.ring));
  output_char oc '\n';
  close_out oc
