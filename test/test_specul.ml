(** Speculation journal: unit tests plus a model-based property test —
    rolling back to any checkpoint must restore exactly the state captured
    at that checkpoint, regardless of the interleaving of writes,
    checkpoints, commits and compactions. *)

open Machine

let classes =
  [ { Regfile.cname = "G"; count = 16; width = 64; hardwired_zero = None } ]

let fresh () =
  let st = State.create ~endian:Memory.Little classes in
  st.pc <- 0x1000L;
  (st, Specsim.Specul.create ())

(* journaled write helpers (what compiled hooks do) *)
let jwrite_reg j st flat v =
  Specsim.Specul.record_reg j st flat;
  Regfile.write_flat st.regs flat v

let jwrite_mem j st addr v =
  Specsim.Specul.record_store j st (Memory.addr_int addr) 8;
  Memory.write st.mem ~addr ~width:8 v

let test_basic_rollback () =
  let st, j = fresh () in
  Regfile.write_flat st.regs 3 100L;
  let t = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 3 200L;
  jwrite_mem j st 0x40L 77L;
  st.pc <- 0x2000L;
  Specsim.Specul.rollback j st t;
  Alcotest.(check int64) "register restored" 100L (Regfile.read_flat st.regs 3);
  Alcotest.(check int64) "memory restored" 0L (Memory.read st.mem ~addr:0x40L ~width:8);
  Alcotest.(check int64) "pc restored" 0x1000L st.pc

let test_nested_rollback () =
  let st, j = fresh () in
  let t1 = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 1 10L;
  let t2 = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 1 20L;
  let t3 = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 1 30L;
  Specsim.Specul.rollback j st t3;
  Alcotest.(check int64) "inner undone" 20L (Regfile.read_flat st.regs 1);
  Specsim.Specul.rollback j st t2;
  Alcotest.(check int64) "middle undone" 10L (Regfile.read_flat st.regs 1);
  Specsim.Specul.rollback j st t1;
  Alcotest.(check int64) "outer undone" 0L (Regfile.read_flat st.regs 1)

let test_commit_invalidates () =
  let st, j = fresh () in
  let t1 = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 1 1L;
  let t2 = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 1 2L;
  Specsim.Specul.commit j t1;
  Alcotest.check_raises "rollback below commit rejected"
    (Invalid_argument "Specul.rollback: invalid token") (fun () ->
      Specsim.Specul.rollback j st t1);
  (* the newer checkpoint still works *)
  Specsim.Specul.rollback j st t2;
  Alcotest.(check int64) "t2 still rollbackable" 1L (Regfile.read_flat st.regs 1)

let test_commit_all_resets () =
  let st, j = fresh () in
  let t1 = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 1 1L;
  let t2 = Specsim.Specul.checkpoint j st in
  jwrite_reg j st 2 2L;
  Specsim.Specul.commit j t1;
  Specsim.Specul.commit j t2;
  Alcotest.(check int) "depth zero" 0 (Specsim.Specul.depth j);
  Alcotest.(check (pair int int)) "log reset" (0, 0) (Specsim.Specul.log_sizes j)

let test_tokens_survive_compact () =
  let st, j = fresh () in
  (* build many checkpoints, commit most, compact, then roll back a
     still-open one: the token must remain valid *)
  let tokens = Array.init 100 (fun i ->
      let t = Specsim.Specul.checkpoint j st in
      jwrite_reg j st (i mod 16) (Int64.of_int i);
      t)
  in
  Specsim.Specul.commit j tokens.(89);
  Specsim.Specul.compact j;
  let expected = Regfile.read_flat st.regs (95 mod 16) in
  ignore expected;
  Specsim.Specul.rollback j st tokens.(95);
  (* after rollback to checkpoint 95, writes 95..99 are undone *)
  Alcotest.(check int64) "write 95 undone: reg 15 has value from i=79"
    79L
    (Regfile.read_flat st.regs 15)

let test_rollback_clears_fault () =
  let st, j = fresh () in
  let t = Specsim.Specul.checkpoint j st in
  State.raise_fault st (Fault.Exit 1);
  Alcotest.(check bool) "halted" true st.halted;
  Specsim.Specul.rollback j st t;
  Alcotest.(check bool) "fault cleared" true (st.fault = None && not st.halted)

(* Model-based property: replay a random script of operations against
   both the journal and a list of full snapshots; rollback must agree. *)
let prop_matches_snapshots =
  let gen =
    QCheck.Gen.(
      list_size (int_range 5 60)
        (frequency
           [
             (4, map2 (fun r v -> `Wreg (r mod 16, Int64.of_int v)) nat int);
             (3, map2 (fun a v -> `Wmem ((a mod 32) * 8, Int64.of_int v)) nat int);
             (2, return `Checkpoint);
             (1, return `Commit_oldest);
           ]))
  in
  QCheck.Test.make ~count:200 ~name:"rollback restores snapshot state"
    (QCheck.make gen) (fun script ->
      let st, j = fresh () in
      (* (token, regs snapshot, mem snapshot) *)
      let snaps = ref [] in
      let committed = ref 0 in
      let mem_dump () =
        List.init 32 (fun i -> Memory.read st.mem ~addr:(Int64.of_int (i * 8)) ~width:8)
      in
      List.iter
        (fun op ->
          match op with
          | `Wreg (r, v) -> jwrite_reg j st r v
          | `Wmem (a, v) -> jwrite_mem j st (Int64.of_int a) v
          | `Checkpoint ->
            let t = Specsim.Specul.checkpoint j st in
            snaps := (t, Regfile.copy st.regs, mem_dump ()) :: !snaps
          | `Commit_oldest ->
            if Specsim.Specul.depth j > 0 then begin
              (* commit the oldest still-open snapshot *)
              match List.rev !snaps with
              | (t, _, _) :: _ when t >= !committed ->
                Specsim.Specul.commit j t;
                committed := t + 1;
                snaps := List.filter (fun (x, _, _) -> x > t) !snaps
              | _ -> ()
            end)
        script;
      match !snaps with
      | [] -> true
      | snaps ->
        (* roll back to a "random" (middle) open checkpoint *)
        let t, regs, mem = List.nth snaps (List.length snaps / 2) in
        Specsim.Specul.rollback j st t;
        Regfile.equal st.regs regs && mem_dump () = mem)

let suite =
  [
    Alcotest.test_case "basic rollback" `Quick test_basic_rollback;
    Alcotest.test_case "nested rollback" `Quick test_nested_rollback;
    Alcotest.test_case "commit invalidates" `Quick test_commit_invalidates;
    Alcotest.test_case "commit-all resets" `Quick test_commit_all_resets;
    Alcotest.test_case "tokens survive compact" `Quick test_tokens_survive_compact;
    Alcotest.test_case "rollback clears fault" `Quick test_rollback_clears_fault;
    QCheck_alcotest.to_alcotest prop_matches_snapshots;
  ]
