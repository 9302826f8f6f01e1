//! # portopt-ir
//!
//! The intermediate representation underneath the `portopt` portable
//! optimising compiler — a reproduction of Dubach et al.,
//! *Portable Compiler Optimisation Across Embedded Programs and
//! Microarchitectures using Machine Learning* (MICRO 2009).
//!
//! The IR is a conventional register-machine CFG form, deliberately close to
//! the RTL level at which gcc 4.2 applies the optimisation passes studied in
//! the paper: virtual registers, explicit loads/stores into a flat byte
//! address space, basic blocks with a single terminator, and direct calls.
//!
//! Programs are constructed with the [`FuncBuilder`]/[`ModuleBuilder`] DSL:
//!
//! ```
//! use portopt_ir::{FuncBuilder, ModuleBuilder, verify_module};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let (_, table) = mb.global("table", 64);
//! let mut b = FuncBuilder::new("main", 0);
//! let base = b.iconst(table as i64);
//! let acc = b.iconst(0);
//! b.counted_loop(0, 64, 1, |b, i| {
//!     let off = b.shl(i, 2);
//!     let addr = b.add(base, off);
//!     let v = b.load(addr, 0);
//!     let t = b.add(acc, v);
//!     b.assign(acc, t);
//! });
//! b.ret(acc);
//! let id = mb.add(b.finish());
//! mb.entry(id);
//! let module = mb.finish();
//! verify_module(&module).unwrap();
//! ```
//!
//! Analyses ([`Cfg`], [`DomTree`], [`LoopForest`], [`Liveness`]) are plain
//! functions over immutable IR so the passes in `portopt-passes` can
//! recompute them cheaply after each transformation.

#![warn(missing_docs)]

mod builder;
mod cfg;
mod dom;
pub mod fingerprint;
mod function;
mod inst;
pub mod interp;
mod liveness;
mod loops;
pub mod paged;
mod types;
pub mod verify;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use cfg::{reachable, reverse_postorder, reverse_postorder_cfg, Cfg};
pub use dom::DomTree;
pub use fingerprint::StableHasher;
pub use function::{Block, Function, Global, GlobalAddr, Module};
pub use inst::Inst;
pub use liveness::{BitSet, Liveness};
pub use loops::{Loop, LoopForest};
pub use paged::PagedTable;
pub use types::{BinOp, BlockId, FuncId, Operand, Pred, VReg};
pub use verify::{calls, module_stats, verify_function, verify_module, ModuleStats, VerifyError};
