"""policylock: a columnar, partition-parallel policy-learning engine governed
by an explicit fixed-input semantic contract."""

from .errors import (EngineError, InvalidArgumentError, UnsupportedConfigurationError,
                     SchemaError, ContractViolationError, AlignmentError,
                     MalformedTreeError)
from .frame import (ColumnFrame, PartitionedFrame, PerturbationKind,
                    PerturbationSpec, partition, apply_perturbation, frame_checksum,
                    concat_frames, read_csv, write_csv, CsvRoles)
from .synth import SynthSpec, generate, split_train_holdout
from .forest import (TreeArrays, ForestArrays, validate_forest, traverse_batch,
                     score_forest, forest_to_text, forest_from_text, random_forest)
from .inference import (InferenceBackend, ScoreColumn, ParityReport,
                        score, check_parity, measure_throughput, BACKEND_KINDS)
from .splitsearch import (Boundaries, uniform_boundaries, bucketize,
                          candidate_row_count, select_control, treatment_codes,
                          bin_rows, PrefixTable,
                          build_prefix_sums, windowed_prefix_table, ddp_max,
                          CandidateScore, expand_and_score, compare_candidates,
                          candidate_order_key, SplitConfig, BestSplit,
                          SplitSearchResult, best_split, naive_variant_best_split,
                          approx_quantile_boundaries, EXECUTION_PATHS,
                          NAIVE_VARIANTS, PATH_REFERENCE, PATH_RELATIONAL,
                          PATH_PARTITIONED, STATUS_OK, STATUS_NO_VALID,
                          STATUS_SKIPPED_TOO_LARGE)
from .trainer import (Manifest, build_manifest, manifest_to_text,
                      manifest_from_text, PolicyTree, train,
                      train_unlocked_naive, TreeSignature, signature, assign,
                      Assignments, policy_value, uplift_proxy, auuc_qini,
                      Witness, make_witness, witness_compare, WitnessReport,
                      row_id_set_digest)

__version__ = "0.1.0"
