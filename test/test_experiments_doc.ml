(* EXPERIMENTS.md quotes E1 (the empirical Table 1) as a markdown table;
   bench/main.exe writes the same table as results/e1_table_1.csv, which
   CI regenerates and requires unchanged. This test ties the two: the
   document's table must equal the CSV row for row, so a change that
   moves a paper-level count cannot update one and leave the other
   stale. *)

(* [dune runtest] runs in _build/default/test, [dune exec] in the root. *)
let read_repo_file name =
  let path =
    let up = Filename.concat ".." name in
    if Sys.file_exists up then up else name
  in
  In_channel.with_open_bin path In_channel.input_all

let lines s = String.split_on_char '\n' s

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* A table row's cells, trimmed, with markdown emphasis and digit
   separators removed: [| **112_896** |] reads as [112896]. *)
let cells row =
  let strip c = not (c = '*' || c = '_') in
  match String.split_on_char '|' (String.trim row) with
  | "" :: rest ->
      List.filteri (fun i _ -> i < List.length rest - 1) rest
      |> List.map (fun c ->
             String.trim (String.of_seq (Seq.filter strip (String.to_seq c))))
  | _ -> Alcotest.failf "not a table row: %s" row

(* The first table after the "## E1" heading: header and body rows. *)
let e1_table doc =
  let rec to_heading = function
    | [] -> Alcotest.fail "EXPERIMENTS.md: no \"## E1\" heading"
    | l :: rest ->
        if starts_with ~prefix:"## E1" l then rest else to_heading rest
  in
  let rec to_table = function
    | [] -> Alcotest.fail "EXPERIMENTS.md: no table under E1"
    | l :: rest ->
        if starts_with ~prefix:"|" l then l :: rest else to_table rest
  in
  match to_table (to_heading (lines doc)) with
  | header :: separator :: rest ->
      if not (starts_with ~prefix:"|---" separator) then
        Alcotest.failf "E1 table: bad separator %s" separator;
      let rec body acc = function
        | l :: rest when starts_with ~prefix:"|" l -> body (cells l :: acc) rest
        | _ -> List.rev acc
      in
      (cells header, body [] rest)
  | _ -> Alcotest.fail "E1 table: no rows"

let test_e1_table () =
  let header, rows = e1_table (read_repo_file "EXPERIMENTS.md") in
  let csv =
    read_repo_file "results/e1_table_1.csv"
    |> lines
    |> List.filter (fun l -> l <> "")
    |> List.map (String.split_on_char ',')
  in
  let csv_header, csv_rows =
    match csv with h :: r -> (h, r) | [] -> Alcotest.fail "empty CSV"
  in
  let quoted = List.length header in
  let first k l = List.filteri (fun i _ -> i < k) l in
  Alcotest.(check (list string))
    "header" (first quoted csv_header) header;
  Alcotest.(check int) "row count" (List.length csv_rows) (List.length rows);
  List.iter2
    (fun csv_row row ->
      Alcotest.(check (list string))
        (String.concat "," (first 2 csv_row))
        (first quoted csv_row) row)
    csv_rows rows;
  (* The text under the table says every row is strong. *)
  let strong =
    match List.find_index (String.equal "strong") csv_header with
    | Some i -> i
    | None -> Alcotest.fail "CSV: no strong column"
  in
  List.iter
    (fun r ->
      Alcotest.(check string)
        (List.hd r ^ ": strong") "yes" (List.nth r strong))
    csv_rows

let suite =
  ( "experiments-doc",
    [
      Alcotest.test_case "E1 table = results/e1_table_1.csv" `Quick
        test_e1_table;
    ] )
