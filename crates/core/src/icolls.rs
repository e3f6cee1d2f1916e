//! Non-blocking collective bindings: `iBcast`, `iAllReduce`,
//! `iAllGather`, `iGather`, `iAllToAll`, and `iBarrier`, for direct
//! ByteBuffers and Java arrays.
//!
//! The native library compiles each call into a collective schedule and
//! progresses it whenever the rank is inside MPI (see `mpisim::coll::
//! sched`); the binding returns a [`JRequest`] whose completion deposits
//! the result.
//!
//! * **Direct ByteBuffers**: the source is read at post time, the
//!   destination deposited at `Wait`/`Test` — zero Java-side copies.
//! * **Java arrays** (MVAPICH2-J only, like non-blocking
//!   point-to-point): the participating region stages through a pooled
//!   direct buffer. The request *pins* that buffer — it is not
//!   returned to the pool until completion, so a collection running
//!   while the schedule is in flight can never hand the storage to
//!   someone else. GC safety is by construction, not by luck.

use mpisim::datatype::Datatype;
use mpisim::{CommHandle, ReduceOp};
use mpjbuf::Buffer;
use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray};

use crate::datatype::datatype_of;
use crate::env::Env;
use crate::error::{BindError, BindResult};
use crate::request::{ArrayDest, JRequest, PostAction};

/// Completion action for a receive array: unstage from `staging`.
fn recv_array_post<T: Prim>(staging: Buffer, arr: JArray<T>, elems: usize) -> PostAction {
    PostAction::RecvArray {
        staging,
        dest: ArrayDest {
            handle: arr.handle(),
            byte_off: 0,
            byte_len: arr.byte_len(),
        },
        dt: datatype_of::<T>(),
        count: elems,
    }
}

impl Env {
    /// Lend the first `n` bytes of a staging store to one native call.
    fn lend<R>(
        &mut self,
        store: DirectBuffer,
        n: usize,
        call: impl FnOnce(&mut mpisim::Mpi, &[u8]) -> mpisim::MpiResult<R>,
    ) -> BindResult<R> {
        let bytes = &self.rt.direct_bytes(store)?[..n];
        Ok(call(&mut self.mpi, bytes)?)
    }

    /// The documented restriction, extended to collectives: Open MPI-J
    /// cannot pair Java arrays with non-blocking operations.
    fn check_array_nb(&self) -> BindResult<()> {
        if !self.flavor.arrays_with_nonblocking {
            return Err(BindError::Unsupported(
                "Java arrays with non-blocking collective operations",
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// `comm.iBarrier()`.
    pub fn ibarrier(&mut self, comm: CommHandle) -> BindResult<JRequest> {
        self.binding_call();
        let native = self.mpi.ibarrier(comm)?;
        Ok(JRequest {
            native,
            post: PostAction::SendDone,
            pinned: None,
        })
    }

    // ------------------------------------------------------------------
    // Direct-ByteBuffer flavour
    // ------------------------------------------------------------------

    /// `comm.iBcast(ByteBuffer, count, datatype, root)`: the buffer is
    /// read at the root and receives the payload on every rank at
    /// completion.
    pub fn ibcast_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        let span = Self::check_dt_capacity(buf, count, dt, 1)?;
        self.charge_buffer_address();
        let bytes = self.rt.direct_bytes(buf)?;
        let native = self.mpi.ibcast(&bytes[..span], count, dt, root, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::RecvBuffer { buf, span },
            pinned: None,
        })
    }

    /// `comm.iAllReduce(send, recv, count, datatype, op)` over buffers.
    pub fn iallreduce_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        let span = Self::check_dt_capacity(recv, count, dt, 1)?;
        let sent = Self::check_dt_capacity(send, count, dt, 1)?;
        self.charge_buffer_address();
        let bytes = self.rt.direct_bytes(send)?;
        let native = self.mpi.iallreduce(&bytes[..sent], count, dt, op, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::RecvBuffer { buf: recv, span },
            pinned: None,
        })
    }

    /// `comm.iAllGather(send, recv, count, datatype)` over buffers;
    /// `recv` holds `size × count` elements at completion.
    pub fn iallgather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        let p = self.mpi.size(comm)?;
        let span = Self::check_dt_capacity(recv, count, dt, p)?;
        let sent = Self::check_dt_capacity(send, count, dt, 1)?;
        self.charge_buffer_address();
        let bytes = self.rt.direct_bytes(send)?;
        let native = self.mpi.iallgather(&bytes[..sent], count, dt, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::RecvBuffer { buf: recv, span },
            pinned: None,
        })
    }

    /// `comm.iGather(send, recv, count, datatype, root)` over buffers;
    /// `recv` is significant only at the root.
    #[allow(clippy::too_many_arguments)]
    pub fn igather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: Option<DirectBuffer>,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        let sent = Self::check_dt_capacity(send, count, dt, 1)?;
        let me = self.mpi.rank(comm)?;
        let post = if me == root {
            let p = self.mpi.size(comm)?;
            let out = recv.ok_or(BindError::Mpi(mpisim::MpiError::BufferTooSmall {
                needed: dt.span(count as usize * p),
                available: 0,
            }))?;
            let span = Self::check_dt_capacity(out, count, dt, p)?;
            PostAction::RecvBuffer { buf: out, span }
        } else {
            PostAction::SendDone
        };
        self.charge_buffer_address();
        let bytes = self.rt.direct_bytes(send)?;
        let native = self.mpi.igather(&bytes[..sent], count, dt, root, comm)?;
        Ok(JRequest {
            native,
            post,
            pinned: None,
        })
    }

    /// `comm.iAllToAll(send, recv, count, datatype)` over buffers; both
    /// hold `size × count` elements (one block per peer).
    pub fn ialltoall_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        let p = self.mpi.size(comm)?;
        let span = Self::check_dt_capacity(recv, count, dt, p)?;
        let sent = Self::check_dt_capacity(send, count, dt, p)?;
        self.charge_buffer_address();
        let bytes = self.rt.direct_bytes(send)?;
        let native = self.mpi.ialltoall(&bytes[..sent], count, dt, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::RecvBuffer { buf: recv, span },
            pinned: None,
        })
    }

    // ------------------------------------------------------------------
    // Java-array flavour (staging pinned for the schedule lifetime)
    // ------------------------------------------------------------------

    /// `comm.iBcast(type[] arr, count, datatype, root)`.
    pub fn ibcast_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb()?;
        self.binding_call();
        let elems = Self::check_count(count)?;
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        // The root stages its payload in; every rank (root included)
        // receives the delivered payload back through a pinned staging
        // buffer at completion.
        let staging = if me == root {
            self.stage_region(arr, elems)?
        } else {
            self.stage_empty(elems * T::SIZE)
        };
        let store = staging.store();
        let post = recv_array_post(staging, arr, elems);
        self.charge_buffer_address();
        let native = self.lend(store, elems * T::SIZE, |mpi, bytes| {
            mpi.ibcast(bytes, count, &dt, root, comm)
        });
        self.post_request(native, post, None)
    }

    /// `comm.iAllReduce(type[] send, type[] recv, count, op)`.
    pub fn iallreduce_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb()?;
        self.binding_call();
        let elems = Self::check_count(count)?;
        let dt = datatype_of::<T>();
        let staging = self.stage_region(send, elems)?;
        let post = recv_array_post(self.stage_empty(elems * T::SIZE), recv, elems);
        self.charge_buffer_address();
        let native = self.lend(staging.store(), elems * T::SIZE, |mpi, bytes| {
            mpi.iallreduce(bytes, count, &dt, op, comm)
        });
        self.post_request(native, post, Some(staging))
    }

    /// `comm.iAllGather(type[] send, type[] recv, count)`; `recv` must
    /// hold `size × count` elements.
    pub fn iallgather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb()?;
        self.binding_call();
        let elems = Self::check_count(count)?;
        let p = self.mpi.size(comm)?;
        let dt = datatype_of::<T>();
        let staging = self.stage_region(send, elems)?;
        let post = recv_array_post(self.stage_empty(elems * p * T::SIZE), recv, elems * p);
        self.charge_buffer_address();
        let native = self.lend(staging.store(), elems * T::SIZE, |mpi, bytes| {
            mpi.iallgather(bytes, count, &dt, comm)
        });
        self.post_request(native, post, Some(staging))
    }

    /// `comm.iGather(type[] send, type[] recv, count, root)`; `recv` is
    /// significant only at the root.
    pub fn igather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: Option<JArray<T>>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb()?;
        self.binding_call();
        let elems = Self::check_count(count)?;
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        let p = self.mpi.size(comm)?;
        // The root's receive array is checked before any staging moves.
        let out = if me == root {
            Some(recv.ok_or(BindError::Mpi(mpisim::MpiError::BufferTooSmall {
                needed: dt.span(elems * p),
                available: 0,
            }))?)
        } else {
            None
        };
        let staging = self.stage_region(send, elems)?;
        let post = match out {
            Some(out) => recv_array_post(self.stage_empty(elems * p * T::SIZE), out, elems * p),
            None => PostAction::SendDone,
        };
        self.charge_buffer_address();
        let native = self.lend(staging.store(), elems * T::SIZE, |mpi, bytes| {
            mpi.igather(bytes, count, &dt, root, comm)
        });
        self.post_request(native, post, Some(staging))
    }

    /// `comm.iAllToAll(type[] send, type[] recv, count)`; both arrays
    /// hold `size × count` elements.
    pub fn ialltoall_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.check_array_nb()?;
        self.binding_call();
        let elems = Self::check_count(count)?;
        let p = self.mpi.size(comm)?;
        let dt = datatype_of::<T>();
        let staging = self.stage_region(send, elems * p)?;
        let post = recv_array_post(self.stage_empty(elems * p * T::SIZE), recv, elems * p);
        self.charge_buffer_address();
        let native = self.lend(staging.store(), elems * p * T::SIZE, |mpi, bytes| {
            mpi.ialltoall(bytes, count, &dt, comm)
        });
        self.post_request(native, post, Some(staging))
    }
}
