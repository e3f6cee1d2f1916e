//! Point-to-point bindings: the Open-MPI-Java-style API over the native
//! library, for both buffer kinds.
//!
//! * **Direct ByteBuffers** (Section IV-C): the binding resolves the
//!   buffer's stable native address (`GetDirectBufferAddress`) and hands
//!   it straight to the native library — zero Java-side copies.
//! * **Java arrays** (Section IV-B): the binding stages the data through
//!   a pooled direct buffer from the buffering layer (one explicit copy
//!   each way), which also enables derived datatypes and — as an
//!   extension the paper proposes for the future — array *subsets* via an
//!   offset argument (`send_array_slice`).

use mpisim::datatype::Datatype;
use mpisim::CommHandle;
use mpjbuf::Buffer;
use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray};
use vtime::VDur;

use crate::datatype::{check_base, datatype_of};
use crate::env::Env;
use crate::error::{BindError, BindResult};
use crate::request::{ArrayDest, Dests, JRequest, JStatus, PostAction, TestOutcome};
use crate::stage::{stage_from_array, unstage_to_array};

impl Env {
    /// Charge the `GetDirectBufferAddress` JNI cost.
    pub(crate) fn charge_buffer_address(&mut self) {
        let cost = *self.rt.cost();
        let t0 = self.mpi.now();
        let clock = self.mpi.clock_mut();
        clock.charge(cost.jni_transition());
        clock.charge(VDur::from_nanos(cost.jni.get_direct_buffer_address_ns));
        obs::span("direct_address", "nif", t0, self.mpi.now(), Vec::new());
    }

    /// Validate an element count (MPI_ERR_COUNT when negative).
    pub(crate) fn check_count(count: i32) -> BindResult<usize> {
        usize::try_from(count).map_err(|_| BindError::Mpi(mpisim::MpiError::InvalidCount { count }))
    }

    /// Validate `count` and check that `buf` holds `blocks × count`
    /// elements of `dt` (one block per peer for gather-type results).
    /// Returns that span in bytes.
    pub(crate) fn check_dt_capacity(
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        blocks: usize,
    ) -> BindResult<usize> {
        let span = dt.span(Self::check_count(count)? * blocks);
        if span > buf.capacity() {
            return Err(BindError::Runtime(mrt::MrtError::BufferOverflow {
                needed: span,
                available: buf.capacity(),
            }));
        }
        Ok(span)
    }

    // ------------------------------------------------------------------
    // Direct-ByteBuffer path
    // ------------------------------------------------------------------

    fn isend_buffer_raw(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let span = Self::check_dt_capacity(buf, count, dt, 1)?;
        self.charge_buffer_address();
        // The native call reads straight out of the buffer's storage.
        let bytes = self.rt.direct_bytes(buf)?;
        let native = self.mpi.isend(&bytes[..span], count, dt, dst, tag, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::SendDone,
            pinned: None,
        })
    }

    fn irecv_buffer_raw(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let span = Self::check_dt_capacity(buf, count, dt, 1)?;
        self.charge_buffer_address();
        let native = self.mpi.irecv(count, dt, src, tag, comm)?;
        Ok(JRequest {
            native,
            post: PostAction::RecvBuffer { buf, span },
            pinned: None,
        })
    }

    /// `comm.send(ByteBuffer, count, datatype, dst, tag)`.
    pub fn send_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let req = self.isend_buffer_raw(buf, count, dt, dst, tag, comm)?;
        self.wait_raw(req).map(|_| ())
    }

    /// `comm.recv(ByteBuffer, count, datatype, src, tag)`.
    pub fn recv_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        self.binding_call();
        let req = self.irecv_buffer_raw(buf, count, dt, src, tag, comm)?;
        self.wait_raw(req)
    }

    /// `comm.iSend(ByteBuffer, ...)`.
    pub fn isend_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.isend_buffer_raw(buf, count, dt, dst, tag, comm)
    }

    /// `comm.iRecv(ByteBuffer, ...)`.
    pub fn irecv_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        self.binding_call();
        self.irecv_buffer_raw(buf, count, dt, src, tag, comm)
    }

    // ------------------------------------------------------------------
    // Java-array path (through the buffering layer)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn isend_array_raw<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let count = Self::check_count(count)?;
        if !check_base::<T>(dt) {
            return Err(BindError::DatatypeMismatch {
                expected: T::TYPE.name(),
                datatype: dt.name(),
            });
        }
        let packed = dt.size() * count;
        // Buffering layer: pooled direct buffer + gather copy.
        let staging = self.stage_empty(packed);
        let store = staging.store();
        let clock = self.mpi.clock_mut();
        let staged = stage_from_array(
            &mut self.rt,
            clock,
            store,
            arr.handle(),
            elem_off * T::SIZE,
            count,
            dt,
        );
        let native = staged.map_err(BindError::from).and_then(|_| {
            self.charge_buffer_address();
            // Native sees a contiguous run of base elements.
            let base_dt = datatype_of::<T>();
            let elems = (packed / T::SIZE) as i32;
            let bytes = self.rt.direct_bytes(store)?;
            Ok(self
                .mpi
                .isend(&bytes[..packed], elems, &base_dt, dst, tag, comm)?)
        });
        self.post_request(native, PostAction::SendDone, Some(staging))
    }

    #[allow(clippy::too_many_arguments)]
    fn irecv_array_raw<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        let count = Self::check_count(count)?;
        if !check_base::<T>(dt) {
            return Err(BindError::DatatypeMismatch {
                expected: T::TYPE.name(),
                datatype: dt.name(),
            });
        }
        let packed = dt.size() * count;
        let staging = self.stage_empty(packed);
        self.charge_buffer_address();
        let base_dt = datatype_of::<T>();
        let elems = (packed / T::SIZE) as i32;
        let native = self
            .mpi
            .irecv(elems, &base_dt, src, tag, comm)
            .map_err(BindError::from);
        let post = PostAction::RecvArray {
            staging,
            dest: ArrayDest {
                handle: arr.handle(),
                byte_off: elem_off * T::SIZE,
                byte_len: arr.byte_len(),
            },
            dt: dt.clone(),
            count,
        };
        self.post_request(native, post, None)
    }

    /// `comm.send(type[] arr, count, datatype, dst, tag)` — natural
    /// datatype.
    pub fn send_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        let dt = datatype_of::<T>();
        self.send_array_dt(arr, count, &dt, dst, tag, comm)
    }

    /// Array send with an explicit (possibly derived) datatype.
    pub fn send_array_dt<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dt: &Datatype,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let req = self.isend_array_raw(arr, 0, count, dt, dst, tag, comm)?;
        self.wait_raw(req).map(|_| ())
    }

    /// Extension (Section IV-B): send a *subset* of an array, restoring
    /// the `offset` argument the Open MPI Java API dropped. The buffering
    /// layer copies only the subset.
    pub fn send_array_slice<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let req = self.isend_array_raw(arr, elem_off, count, &dt, dst, tag, comm)?;
        self.wait_raw(req).map(|_| ())
    }

    /// `comm.recv(type[] arr, count, datatype, src, tag)`.
    pub fn recv_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        let dt = datatype_of::<T>();
        self.recv_array_dt(arr, count, &dt, src, tag, comm)
    }

    /// Array receive with an explicit (possibly derived) datatype.
    pub fn recv_array_dt<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dt: &Datatype,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        self.binding_call();
        let req = self.irecv_array_raw(arr, 0, count, dt, src, tag, comm)?;
        self.wait_raw(req)
    }

    /// Extension: receive into a subset of an array.
    pub fn recv_array_slice<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elem_off: usize,
        count: i32,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JStatus> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let req = self.irecv_array_raw(arr, elem_off, count, &dt, src, tag, comm)?;
        self.wait_raw(req)
    }

    /// `comm.iSend(type[] arr, ...)`. MVAPICH2-J supports this; Open
    /// MPI-J raises the documented unsupported-operation error.
    pub fn isend_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        dst: usize,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        if !self.flavor.arrays_with_nonblocking {
            return Err(BindError::Unsupported(
                "Java arrays with non-blocking point-to-point operations",
            ));
        }
        self.binding_call();
        let dt = datatype_of::<T>();
        self.isend_array_raw(arr, 0, count, &dt, dst, tag, comm)
    }

    /// `comm.iRecv(type[] arr, ...)` (same restriction as
    /// [`Env::isend_array`]).
    pub fn irecv_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> BindResult<JRequest> {
        if !self.flavor.arrays_with_nonblocking {
            return Err(BindError::Unsupported(
                "Java arrays with non-blocking point-to-point operations",
            ));
        }
        self.binding_call();
        let dt = datatype_of::<T>();
        self.irecv_array_raw(arr, 0, count, &dt, src, tag, comm)
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Return a staging buffer to the pool.
    pub(crate) fn release_staging(&mut self, staging: Buffer) {
        let clock = self.mpi.clock_mut();
        staging.free(&mut self.pool, &mut self.rt, clock);
    }

    /// Wrap a posted native request with the staging its `post` and
    /// `pinned` own. A failed post completes at once with its error, which
    /// returns that staging to the pool.
    pub(crate) fn post_request(
        &mut self,
        native: BindResult<mpisim::mpi::MpiRequest>,
        post: PostAction,
        pinned: Option<Buffer>,
    ) -> BindResult<JRequest> {
        match native {
            Ok(native) => Ok(JRequest {
                native,
                post,
                pinned,
            }),
            Err(e) => Err(self
                .complete(post, pinned, Err(e))
                .expect_err("a failed post completes with its error")),
        }
    }

    /// Make a native completion call with `post`'s destination lent in
    /// place: the native library deposits straight into the direct buffer
    /// or the array's staging (conceptually DMA — uncharged).
    fn with_dest<R>(
        &mut self,
        post: &PostAction,
        call: impl FnOnce(&mut mpisim::Mpi, Option<&mut [u8]>) -> mpisim::MpiResult<R>,
    ) -> BindResult<R> {
        let dest = post.dest(&mut self.rt)?;
        Ok(call(&mut self.mpi, dest)?)
    }

    /// Run the Java-side completion actions of a finished request. Every
    /// exit, failed ones included, returns the request's staging to the
    /// pool.
    fn complete(
        &mut self,
        post: PostAction,
        pinned: Option<Buffer>,
        st: BindResult<mpisim::Status>,
    ) -> BindResult<JStatus> {
        if let Some(staging) = pinned {
            self.release_staging(staging);
        }
        if let PostAction::RecvArray {
            staging,
            dest,
            dt,
            count,
        } = post
        {
            // Buffering layer scatters the deposit into the managed array.
            let unstaged = match &st {
                Ok(st) => {
                    let clock = self.mpi.clock_mut();
                    let store = staging.store();
                    unstage_to_array(&mut self.rt, clock, store, &dest, count, &dt, st.bytes)
                }
                Err(_) => Ok(()),
            };
            self.release_staging(staging);
            unstaged?;
        }
        let st = st?;
        Ok(JStatus {
            source: st.source as i32,
            tag: st.tag,
            bytes: st.bytes,
        })
    }

    pub(crate) fn wait_raw(&mut self, req: JRequest) -> BindResult<JStatus> {
        let st = self.with_dest(&req.post, |mpi, dest| mpi.wait(req.native, dest));
        self.complete(req.post, req.pinned, st)
    }

    /// `request.waitFor()`.
    pub fn wait(&mut self, req: JRequest) -> BindResult<JStatus> {
        self.binding_call();
        self.wait_raw(req)
    }

    /// `Request.waitAll(...)`: statuses come back in request order, but
    /// progression is joint — the whole batch is handed to the native
    /// library's `Waitall`, so an early-completing later request (or a
    /// non-blocking collective mixed in with point-to-point requests)
    /// never waits on an earlier slow one. Each receive's destination is
    /// lent only while the native library consumes that request, so a
    /// window of receives may share one buffer. On failure every
    /// request's staging still returns to the pool and the first error
    /// is reported.
    pub fn waitall(&mut self, reqs: Vec<JRequest>) -> BindResult<Vec<JStatus>> {
        self.binding_call();
        let mut natives = Vec::with_capacity(reqs.len());
        let mut posts = Vec::with_capacity(reqs.len());
        let mut pins = Vec::with_capacity(reqs.len());
        for r in reqs {
            natives.push(r.native);
            posts.push(r.post);
            pins.push(r.pinned);
        }
        // A freed destination fails here, before the native call.
        let live = posts
            .iter()
            .try_for_each(|p| p.dest(&mut self.rt).map(drop));
        let statuses: Vec<BindResult<mpisim::Status>> = match live {
            Ok(()) => match self.mpi.waitall(natives, Dests(&mut self.rt, &posts)) {
                Ok(sts) => sts.into_iter().map(Ok).collect(),
                Err(e) => vec![Err(e.into()); posts.len()],
            },
            Err(e) => vec![Err(e.into()); posts.len()],
        };
        let mut out = Vec::with_capacity(posts.len());
        let mut failed = None;
        for ((post, pinned), st) in posts.into_iter().zip(pins).zip(statuses) {
            match self.complete(post, pinned, st) {
                Ok(st) => out.push(st),
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(out), Err)
    }

    /// `request.test()`: non-blocking completion check; hands the request
    /// back when still pending.
    pub fn test(&mut self, req: JRequest) -> BindResult<TestOutcome> {
        self.binding_call();
        let polled = self.with_dest(&req.post, |mpi, dest| mpi.test(&req.native, dest));
        match polled.transpose() {
            None => Ok(TestOutcome::Pending(req)),
            Some(st) => self
                .complete(req.post, req.pinned, st)
                .map(TestOutcome::Done),
        }
    }

    /// `Request.testAny(...)`: poll the batch once; on a hit the
    /// completed request is removed from `reqs` and its original index
    /// and status are returned. Each poll also progresses every
    /// outstanding non-blocking collective. A failed poll returns the
    /// error and leaves `reqs` untouched: every request, its staging
    /// included, stays with the caller.
    pub fn testany(&mut self, reqs: &mut Vec<JRequest>) -> BindResult<Option<(usize, JStatus)>> {
        self.binding_call();
        for i in 0..reqs.len() {
            let req = &reqs[i];
            let polled = self.with_dest(&req.post, |mpi, dest| mpi.test(&req.native, dest))?;
            if let Some(st) = polled {
                let req = reqs.remove(i);
                return self
                    .complete(req.post, req.pinned, Ok(st))
                    .map(|st| Some((i, st)));
            }
        }
        Ok(None)
    }
}
