(* The ldv binary maps user errors to documented exit codes with a
   one-line "ldv:" diagnostic, instead of cmdliner's exit 125 for an
   uncaught exception. *)

let ldv =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/ldv.exe"

(* Run ldv with [args]; return its exit code and its stderr lines. *)
let run args =
  let err = Filename.temp_file "ldv-cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command ldv args ~stdout:Filename.null ~stderr:err)
  in
  let lines =
    In_channel.with_open_text err In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Sys.remove err;
  (code, lines)

let check_exit name expected args =
  let code, lines = run args in
  Alcotest.(check int) (name ^ ": exit code") expected code;
  match lines with
  | [ line ] ->
    Alcotest.(check bool)
      (name ^ ": one ldv: line, got " ^ line)
      true
      (String.starts_with ~prefix:"ldv: " line)
  | _ ->
    Alcotest.failf "%s: expected one stderr line, got %d:\n%s" name
      (List.length lines) (String.concat "\n" lines)

let missing = Filename.concat (Filename.get_temp_dir_name ()) "ldv-missing.ldv"

let test_missing_package () =
  check_exit "exec" 3 [ "exec"; missing ];
  check_exit "inspect" 3 [ "inspect"; missing ]

let test_rejected_sql () =
  check_exit "unknown table" 2 [ "sql"; "SELECT * FROM nope" ];
  check_exit "parse error" 2 [ "sql"; "SELEC 1" ]

let suite =
  [ Alcotest.test_case "missing package exits 3" `Quick test_missing_package;
    Alcotest.test_case "rejected sql exits 2" `Quick test_rejected_sql ]
