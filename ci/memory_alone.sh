#!/usr/bin/env bash
# Each memory-bounded test alone, in a fresh process: ci/memory_alone.sh
#
# The tracemalloc-bounded tests measure a peak over what the process already
# holds. Earlier tests warm the interpreter's free lists, so a test can pass
# in the suite and fail in a fresh process. Each runs here alone, in the
# order listed; a renamed test is "not found" and fails. Exits 1 at the
# first test that fails.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
for id in \
    tests/test_distances.py::test_pairwise_matrix_scratch_stays_bounded \
    tests/test_distances.py::test_pairwise_matrix_scratch_stays_bounded_on_three_workers \
    tests/test_distances.py::test_pairwise_matrix_scratch_stays_within_the_budget_on_many_cpus \
    tests/test_hierarchy.py::test_hubert_holds_no_pairwise_matrix \
    tests/test_hierarchy.py::test_hubert_holds_no_pairwise_matrix_on_many_cpus \
    tests/test_hierarchy.py::test_select_best_measure_holds_one_matrix \
    tests/test_hierarchy.py::test_agglomerate_holds_one_working_copy \
    tests/test_mapping.py::test_avg_holds_no_train_by_test_matrix \
    tests/test_mapping.py::test_avg_holds_no_train_by_test_matrix_on_many_cpus \
    tests/test_storage.py::test_save_dataset_holds_one_copy_of_the_windows \
    tests/test_ingest.py::test_parse_session_holds_no_whole_file_token_list \
    tests/test_ingest.py::test_far_column_index_costs_no_row_of_its_width \
    tests/test_autoencoder.py::test_transform_keeps_no_step_caches \
    tests/test_autoencoder.py::test_validation_loss_keeps_no_step_caches \
    tests/test_autoencoder.py::test_train_step_holds_one_workspace; do
  python -m pytest -q "$id" || exit 1
done
