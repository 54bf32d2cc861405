(** Reproducer minimization: delta-debug the instruction list down to a
    minimal diverging core, then simplify the surviving words.

    Shrinking re-runs the oracle against the single buildset that
    diverged; any divergence (not necessarily the same kind) counts as
    "still failing", which is the standard guard against shrink
    slippage stalls. Because generated programs are full of absolute
    code pointers (self-modifying stores, computed jumps), plain
    instruction removal usually breaks the reproduction by shifting
    every later address — so each removal is retried with a pointer
    fixup that slides code-region register values down past the cut.
    The passes — ddmin chunk removal, pairwise removal of non-adjacent
    survivors, and per-word operand simplification — iterate to a
    fixpoint. All steps are deterministic, so the shrunk testcase — and
    the replay of its reproducer file — is stable across runs. *)

type result = {
  s_tc : Gen.testcase;
  s_tests : int;  (** oracle executions spent shrinking *)
}

let shrink (spec : Lis.Spec.t) (cfg : Oracle.config) ~buildset
    (tc : Gen.testcase) : result =
  let tests = ref 0 in
  let cache = Specsim.Synth.cache spec and record = Oracle.record () in
  let decoder = Specsim.Synth.decoder cache in
  let still_fails tc' =
    incr tests;
    Option.is_some (Oracle.run_pair spec ~cache ~record cfg tc' ~buildset)
  in
  let cur = ref tc in
  (* [remove ~fixup t idxs] drops the instruction slots in [idxs]
     (sorted ascending); with [fixup], register values pointing into the
     code region past a cut slide down by the removed bytes, so
     self-modifying stores and indirect branches keep hitting the same
     surviving instruction. Slot widths come from {!Gen.code_offsets},
     so the slide is exact on mixed-size ISAs too. *)
  let remove ~fixup (t : Gen.testcase) idxs : Gen.testcase =
    let n = Array.length t.Gen.tc_code in
    let keep = Array.make n true in
    List.iter (fun i -> keep.(i) <- false) idxs;
    let code =
      Array.to_list t.tc_code
      |> List.filteri (fun i _ -> keep.(i))
      |> Array.of_list
    in
    if not fixup then { t with Gen.tc_code = code }
    else begin
      let offsets = Gen.code_offsets spec decoder t.tc_code in
      let code_end = Int64.add Gen.code_base (Int64.of_int offsets.(n)) in
      let shift v =
        if Int64.compare v Gen.code_base >= 0 && Int64.compare v code_end < 0
        then
          let removed_below =
            List.fold_left
              (fun acc r ->
                if
                  Int64.compare
                    (Int64.add Gen.code_base (Int64.of_int offsets.(r)))
                    v
                  < 0
                then acc + (offsets.(r + 1) - offsets.(r))
                else acc)
              0 idxs
          in
          Int64.sub v (Int64.of_int removed_below)
        else v
      in
      {
        t with
        Gen.tc_code = code;
        tc_regs = Array.map (fun (c, i, v) -> (c, i, shift v)) t.tc_regs;
      }
    end
  in
  let try_remove_idxs idxs =
    let t = !cur in
    let n = Array.length t.Gen.tc_code in
    if List.length idxs >= n then false
    else begin
      let plain = remove ~fixup:false t idxs in
      if still_fails plain then begin
        cur := plain;
        true
      end
      else begin
        let fixed = remove ~fixup:true t idxs in
        if fixed.tc_regs <> plain.tc_regs && still_fails fixed then begin
          cur := fixed;
          true
        end
        else false
      end
    end
  in
  (* --- ddmin over the instruction array --------------------------- *)
  let try_remove lo len =
    let n = Array.length !cur.Gen.tc_code in
    if len <= 0 || lo >= n then false
    else try_remove_idxs (List.init (min len (n - lo)) (fun k -> lo + k))
  in
  let rec dd chunk =
    let removed = ref false in
    let lo = ref 0 in
    while !lo < Array.length !cur.Gen.tc_code do
      if try_remove !lo chunk then removed := true else lo := !lo + chunk
    done;
    if chunk > 1 then dd (max 1 (chunk / 2))
    else if !removed then dd 1
  in
  (* --- pairwise removal ------------------------------------------- *)
  (* ddmin only ever drops contiguous chunks; a divergence whose setup
     and consumer must leave together (a pointer load plus the store
     through it) can be stuck on non-adjacent pairs. O(n^2) oracle
     runs, but n is small by now. *)
  let drop_pairs () =
    let dropped = ref false in
    let i = ref 0 in
    while !i < Array.length !cur.Gen.tc_code - 1 do
      let j = ref (!i + 2) in
      (* j = i+1 is a contiguous chunk ddmin already tried *)
      while !j < Array.length !cur.Gen.tc_code do
        if try_remove_idxs [ !i; !j ] then dropped := true else incr j
      done;
      incr i
    done;
    !dropped
  in
  (* --- per-word operand minimization ------------------------------ *)
  let try_set p w' =
    let a = !cur.Gen.tc_code in
    if Int64.equal a.(p) w' then false
    else begin
      let b = Array.copy a in
      b.(p) <- w';
      let t = { !cur with Gen.tc_code = b } in
      if still_fails t then begin
        cur := t;
        true
      end
      else false
    end
  in
  let minimize_words () =
    Array.iteri
      (fun p w ->
        let idx = Specsim.Decoder.decode decoder w in
        if idx >= 0 then begin
          let instr = spec.instrs.(idx) in
          (* canonical form first (all free bits zero), else clear each
             free run individually *)
          if not (try_set p instr.i_match) then
            List.iter
              (fun (lo, len) ->
                let mask =
                  if len >= 64 then -1L
                  else Int64.sub (Int64.shift_left 1L len) 1L
                in
                let cleared =
                  Int64.logand
                    !cur.Gen.tc_code.(p)
                    (Int64.lognot (Int64.shift_left mask lo))
                in
                ignore (try_set p cleared))
              (Gen.free_runs spec instr)
        end)
      (Array.copy !cur.Gen.tc_code)
  in
  (* --- fixpoint loop ---------------------------------------------- *)
  let stable = ref false in
  while not !stable do
    let before = !cur in
    if Array.length !cur.Gen.tc_code > 1 then
      dd (max 1 (Array.length !cur.Gen.tc_code / 2));
    ignore (drop_pairs ());
    minimize_words ();
    stable := !cur = before
  done;
  { s_tc = !cur; s_tests = !tests }
