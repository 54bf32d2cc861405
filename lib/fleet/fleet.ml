(** Domain fleet. See the interface for the contract; this comment is
    about the moving parts.

    Batch lifecycle: the collector waits until every worker is parked,
    publishes the batch — its task runner and its size — under the pool
    lock, then bumps the epoch and broadcasts. Worker [s] wakes, runs
    tasks [s], [s + jobs], [s + 2·jobs], … in ascending order, and parks
    again (at once, if the batch has no task [s]). A batch is a flat
    array of independent tasks and no task submits another, so there is
    no nested work to balance, and each worker sees the same tasks on
    every run (DESIGN §13).

    Completions flow through a mutex-guarded queue of task indices; the
    result payload rides in a plain array, published by the queue's
    mutex ordering. A pool of one has no queue: the collector runs task
    [k] itself when it is ready for completion [k]. Task exceptions are
    captured with their backtraces and re-raised on the collector once
    the batch has fully drained — never mid-batch, so the journal keeps
    every completed case even when a sibling case dies. *)

type 'a outcome = Ret of 'a | Raised of exn * Printexc.raw_backtrace

type t = {
  n_jobs : int;
  lock : Mutex.t;
  cond : Condition.t;  (** epoch bumps, worker parking, and stop *)
  mutable epoch : int;
  mutable parked : int;  (** workers waiting for the next epoch *)
  mutable stop : bool;
  mutable batch : int -> int -> unit;
      (** [batch slot k] runs task [k] on worker [slot]'s state *)
  mutable size : int;  (** task count of the published batch *)
  done_lock : Mutex.t;
  done_cond : Condition.t;
  done_q : int Queue.t;  (** completed task indices, collector-drained *)
  mutable domains : unit Domain.t array;
}

let jobs t = t.n_jobs

let worker t slot =
  let rec park epoch =
    Mutex.lock t.lock;
    t.parked <- t.parked + 1;
    if t.parked = t.n_jobs then Condition.broadcast t.cond;
    while (not t.stop) && t.epoch = epoch do
      Condition.wait t.cond t.lock
    done;
    let e = t.epoch and stop = t.stop and batch = t.batch and n = t.size in
    Mutex.unlock t.lock;
    if not stop then begin
      let k = ref slot in
      while !k < n do
        batch slot !k;
        k := !k + t.n_jobs
      done;
      park e
    end
  in
  park 0

let create ?jobs:(n = Domain.recommended_domain_count ()) () =
  if n <= 0 then
    Machine.Sim_error.raisef ~component:"fleet"
      ~context:[ ("jobs", string_of_int n) ]
      "fleet size must be positive";
  let t =
    {
      n_jobs = n;
      lock = Mutex.create ();
      cond = Condition.create ();
      epoch = 0;
      parked = 0;
      stop = false;
      batch = (fun _ _ -> ());
      size = 0;
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
      done_q = Queue.create ();
      domains = [||];
    }
  in
  if n > 1 then
    t.domains <- Array.init n (fun slot -> Domain.spawn (fun () -> worker t slot));
  t

let run (type w a) t ~(workers : w array) ~(tasks : (w -> a) array)
    ~(complete : int -> a -> unit) =
  let n = Array.length tasks in
  if Array.length workers <> t.n_jobs then
    Machine.Sim_error.raisef ~component:"fleet"
      ~context:
        [
          ("jobs", string_of_int t.n_jobs);
          ("workers", string_of_int (Array.length workers));
        ]
      "per-worker state array must match the fleet size";
  if n > 0 then begin
    let results = Array.make n (Raised (Exit, Printexc.get_callstack 0)) in
    let exec slot k =
      results.(k) <-
        (try Ret (tasks.(k) workers.(slot))
         with exn -> Raised (exn, Printexc.get_raw_backtrace ()))
    in
    Mutex.lock t.lock;
    if t.stop then begin
      Mutex.unlock t.lock;
      Machine.Sim_error.raisef ~component:"fleet" "fleet is shut down"
    end;
    (* [next i] yields the task index of the [i]-th completion *)
    let next =
      if t.n_jobs = 1 then begin
        Mutex.unlock t.lock;
        fun k ->
          exec 0 k;
          k
      end
      else begin
        (* wait out any stragglers of the previous batch, then hand off *)
        while t.parked < t.n_jobs do
          Condition.wait t.cond t.lock
        done;
        t.batch <-
          (fun slot k ->
            exec slot k;
            Mutex.lock t.done_lock;
            Queue.push k t.done_q;
            Condition.signal t.done_cond;
            Mutex.unlock t.done_lock);
        t.size <- n;
        t.parked <- 0;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        fun _ ->
          Mutex.lock t.done_lock;
          while Queue.is_empty t.done_q do
            Condition.wait t.done_cond t.done_lock
          done;
          let k = Queue.pop t.done_q in
          Mutex.unlock t.done_lock;
          k
      end
    in
    (* collect: exactly one completion per task *)
    let first_err = ref None in
    let complete_err = ref None in
    for i = 0 to n - 1 do
      let k = next i in
      match results.(k) with
      | Ret v -> (
        match !complete_err with
        | Some _ -> ()  (* collector callback already failed: drain only *)
        | None -> (
          try complete k v
          with exn ->
            complete_err := Some (exn, Printexc.get_raw_backtrace ())))
      | Raised (exn, bt) -> (
        match !first_err with
        | Some (k0, _, _) when k0 < k -> ()
        | _ -> first_err := Some (k, exn, bt))
    done;
    match (!first_err, !complete_err) with
    | Some (_, exn, bt), _ | None, Some (exn, bt) ->
      Printexc.raise_with_backtrace exn bt
    | None, None -> ()
  end

let map t ~workers ~tasks =
  let out = Array.make (Array.length tasks) None in
  run t ~workers ~tasks ~complete:(fun k v -> out.(k) <- Some v);
  Array.map Option.get out

let with_states t ~caller ~fresh ~join f =
  if t.n_jobs = 1 then f [| caller |]
  else
    let states = Array.init t.n_jobs (fun _ -> fresh ()) in
    Fun.protect ~finally:(fun () -> Array.iter join states) (fun () -> f states)

let shutdown t =
  Mutex.lock t.lock;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.domains
  end
  else Mutex.unlock t.lock

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
