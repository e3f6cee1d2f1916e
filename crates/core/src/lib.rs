//! **MVAPICH2-J** (`mvapich2j`) — the paper's primary contribution,
//! reproduced in Rust: Java-bindings-style MPI over a simulated native
//! MVAPICH2 library, with a deliberately *minimal* "Java" layer.
//!
//! The library follows the Open MPI Java bindings API (Section II-C):
//!
//! * communication to/from **direct ByteBuffers** — stable off-heap
//!   storage handed to the native library with zero Java-side copies
//!   (`send_buffer`, `bcast_buffer`, …);
//! * communication to/from **Java arrays** — staged through the `mpjbuf`
//!   buffering layer's pooled direct buffers (`send_array`,
//!   `allreduce_array`, …), which also enables derived datatypes and, as
//!   an extension, array subsets (`send_array_slice`);
//! * blocking and non-blocking point-to-point, blocking collectives and
//!   blocking *vectored* collectives, and communicator/group management;
//! * unlike Open MPI-J, Java arrays work with non-blocking operations —
//!   the buffering layer owns the staging buffer until completion.
//!
//! Jobs run under [`run_job`]: one thread per simulated rank, each with
//! its own managed runtime ("JVM"), native library instance, and buffer
//! pool, all sharing a deterministic virtual clock. See the repository's
//! `DESIGN.md` for how this reproduces the paper's evaluation.
//!
//! ```
//! use mvapich2j::{run_job, JobConfig};
//! use mvapich2j::datatype::INT;
//! use simfabric::Topology;
//!
//! // 2 ranks on one node: rank 0 sends four ints to rank 1.
//! let results = run_job(JobConfig::mvapich2j(Topology::single_node(2)), |env| {
//!     let world = env.world();
//!     if env.rank() == 0 {
//!         let arr = env.new_array::<i32>(4).unwrap();
//!         for i in 0..4 {
//!             env.array_set(arr, i, i as i32 * 2).unwrap();
//!         }
//!         env.send_array(arr, 4, 1, 99, world).unwrap();
//!         0
//!     } else {
//!         let arr = env.new_array::<i32>(4).unwrap();
//!         let st = env.recv_array(arr, 4, 0, 99, world).unwrap();
//!         assert_eq!(st.bytes, 16);
//!         env.array_get(arr, 3).unwrap()
//!     }
//! });
//! assert_eq!(results[1], 6);
//! ```

pub mod colls;
pub mod comm;
pub mod datatype;
pub mod env;
pub mod error;
pub mod flavor;
pub mod icolls;
pub mod pt2pt;
pub mod request;
pub mod rma;
pub mod stage;

pub use env::{run_job, run_job_with_obs, Env, JobConfig};
pub use error::{BindError, BindResult};
pub use flavor::{BindingFlavor, MVAPICH2J, OPENMPIJ};
pub use request::{JRequest, JStatus, TestOutcome};
pub use rma::JWin;

// Re-exports so applications need only this crate.
pub use mpisim::{CommHandle, Group, MpiError, Profile, ReduceOp};
pub use mrt::{ByteOrder, DirectBuffer, JArray, MrtError};
pub use simfabric::{EngineMode, Topology};
