//! Collective bindings (Section IV-D): blocking collectives and their
//! vectored variants, for direct ByteBuffers and Java arrays.
//!
//! "Like the point-to-point primitives, the buffering layer is used for
//! Java arrays. Again, the idea is to keep the Java layer as minimal as
//! possible and utilize all optimizations and advanced collective
//! algorithms available in the native MVAPICH2 library."
//!
//! Array variants stage the whole participating region through a pooled
//! direct buffer (one bulk copy each way); buffer variants hand the
//! native library the buffer's stable storage. Either way the native
//! call reads and writes that storage in place. A send and a receive
//! buffer must be distinct: one direct buffer passed as both fails with
//! [`mrt::MrtError::AliasedBuffers`] (MPI forbids aliasing them).

use mpisim::datatype::Datatype;
use mpisim::{CommHandle, ReduceOp};
use mpjbuf::Buffer;
use mrt::prim::Prim;
use mrt::{DirectBuffer, JArray, MrtResult};

use crate::datatype::datatype_of;
use crate::env::Env;
use crate::error::{BindError, BindResult};
use crate::request::ArrayDest;
use crate::stage::{stage_from_array, unstage_to_array};

/// A buffer argument significant only at the root, which must supply it.
fn required_at_root<B>(buf: Option<B>) -> BindResult<B> {
    buf.ok_or(BindError::Mpi(mpisim::MpiError::BufferTooSmall {
        needed: 0,
        available: 0,
    }))
}

impl Env {
    /// Stage the first `elems` elements of an array into a pooled buffer:
    /// one charged bulk copy of exactly the participating region.
    pub(crate) fn stage_region<T: Prim>(
        &mut self,
        arr: JArray<T>,
        elems: usize,
    ) -> BindResult<Buffer> {
        let staging = self.stage_empty(elems * T::SIZE);
        let dt = datatype_of::<T>();
        let clock = self.mpi.clock_mut();
        let staged = stage_from_array(
            &mut self.rt,
            clock,
            staging.store(),
            arr.handle(),
            0,
            elems,
            &dt,
        );
        self.keep_staging(staging, staged.map(drop))
    }

    /// Acquire a pooled staging buffer for `nbytes` without copying in.
    pub(crate) fn stage_empty(&mut self, nbytes: usize) -> Buffer {
        let clock = self.mpi.clock_mut();
        Buffer::from_pool(&mut self.pool, &mut self.rt, clock, nbytes.max(1))
    }

    /// Hand `staging` back when filling it succeeded; return it to the
    /// pool when not.
    fn keep_staging(&mut self, staging: Buffer, filled: MrtResult<()>) -> BindResult<Buffer> {
        match filled {
            Ok(()) => Ok(staging),
            Err(e) => {
                self.release_staging(staging);
                Err(e.into())
            }
        }
    }

    /// Run `body` on the storage of the staging buffers `held`, then
    /// return them to the pool in order, on every exit. Nesting calls
    /// releases inner staging before outer staging.
    fn with_staging<const N: usize, R>(
        &mut self,
        held: [Buffer; N],
        body: impl FnOnce(&mut Self, [DirectBuffer; N]) -> BindResult<R>,
    ) -> BindResult<R> {
        let res = body(self, held.each_ref().map(Buffer::store));
        for staging in held {
            self.release_staging(staging);
        }
        res
    }

    /// Scatter the first `nbytes` the native library deposited into the
    /// staging store over the start of the array (charged).
    fn unstage_region<T: Prim>(
        &mut self,
        store: DirectBuffer,
        arr: JArray<T>,
        nbytes: usize,
    ) -> BindResult<()> {
        let dt = datatype_of::<T>();
        let dest = ArrayDest {
            handle: arr.handle(),
            byte_off: 0,
            byte_len: arr.byte_len(),
        };
        let clock = self.mpi.clock_mut();
        Ok(unstage_to_array(
            &mut self.rt,
            clock,
            store,
            &dest,
            nbytes / T::SIZE,
            &dt,
            nbytes,
        )?)
    }

    /// Receive staging seeded with the array's current contents
    /// (uncharged): scatters and vectored collectives fill only their
    /// blocks, and everything else must unstage unchanged.
    fn stage_seeded<T: Prim>(&mut self, arr: JArray<T>) -> BindResult<Buffer> {
        let n = arr.byte_len();
        let staging = self.stage_empty(n);
        let seeded = self
            .rt
            .heap_and_direct_bytes(arr.handle(), staging.store())
            .map(|(obj, store)| store[..n].copy_from_slice(&obj[..n]));
        self.keep_staging(staging, seeded)
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// `comm.barrier()`.
    pub fn barrier(&mut self, comm: CommHandle) -> BindResult<()> {
        self.binding_call();
        self.mpi.barrier(comm)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bcast
    // ------------------------------------------------------------------

    /// `comm.bcast(ByteBuffer, count, datatype, root)`.
    pub fn bcast_buffer(
        &mut self,
        buf: DirectBuffer,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let bytes = self.rt.direct_bytes_mut(buf)?;
        self.mpi.bcast(bytes, count, dt, root, comm)?;
        Ok(())
    }

    /// `comm.bcast(type[] arr, count, datatype, root)`.
    pub fn bcast_array<T: Prim>(
        &mut self,
        arr: JArray<T>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let me = self.mpi.rank(comm)?;
        let dt = datatype_of::<T>();
        let elems = Self::check_count(count)?;
        let n = elems * T::SIZE;
        let staging = if me == root {
            self.stage_region(arr, elems)?
        } else {
            self.stage_empty(n)
        };
        self.with_staging([staging], |env, [store]| {
            env.charge_buffer_address();
            let bytes = &mut env.rt.direct_bytes_mut(store)?[..n];
            env.mpi.bcast(bytes, count, &dt, root, comm)?;
            if me == root {
                Ok(())
            } else {
                env.unstage_region(store, arr, n)
            }
        })
    }

    // ------------------------------------------------------------------
    // Reduce / Allreduce
    // ------------------------------------------------------------------

    /// `comm.reduce(send, recv, count, datatype, op, root)` over direct
    /// buffers; `recv` is significant at the root.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_buffer(
        &mut self,
        send: DirectBuffer,
        recv: Option<DirectBuffer>,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let me = self.mpi.rank(comm)?;
        if me == root {
            let out = recv.ok_or(BindError::Mpi(mpisim::MpiError::BufferTooSmall {
                needed: dt.span(count.max(0) as usize),
                available: 0,
            }))?;
            let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, out)?;
            self.mpi
                .reduce(sendbytes, Some(recvbytes), count, dt, op, root, comm)?;
        } else {
            let sendbytes = self.rt.direct_bytes(send)?;
            self.mpi
                .reduce(sendbytes, None, count, dt, op, root, comm)?;
        }
        Ok(())
    }

    /// Array flavour of reduce.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: Option<JArray<T>>,
        count: i32,
        op: ReduceOp,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = Self::check_count(count)?;
        let n = elems * T::SIZE;
        let staging = self.stage_region(send, elems)?;
        self.with_staging([staging], |env, [store]| {
            env.charge_buffer_address();
            let me = env.mpi.rank(comm)?;
            if me != root {
                let s = env.rt.direct_bytes(store)?;
                env.mpi.reduce(&s[..n], None, count, &dt, op, root, comm)?;
                return Ok(());
            }
            let out = recv.ok_or(BindError::Mpi(mpisim::MpiError::BufferTooSmall {
                needed: dt.span(elems),
                available: 0,
            }))?;
            let rstaging = env.stage_empty(n);
            env.with_staging([rstaging], |env, [rstore]| {
                let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
                env.mpi
                    .reduce(&s[..n], Some(&mut r[..n]), count, &dt, op, root, comm)?;
                env.unstage_region(rstore, out, n)
            })
        })
    }

    /// `comm.allReduce(send, recv, count, datatype, op)` over buffers.
    pub fn allreduce_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, recv)?;
        self.mpi
            .allreduce(sendbytes, recvbytes, count, dt, op, comm)?;
        Ok(())
    }

    /// Array flavour of allreduce.
    pub fn allreduce_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        op: ReduceOp,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = Self::check_count(count)?;
        let n = elems * T::SIZE;
        let staging = self.stage_region(send, elems)?;
        let rstaging = self.stage_empty(n);
        self.with_staging([rstaging, staging], |env, [rstore, store]| {
            env.charge_buffer_address();
            let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
            env.mpi
                .allreduce(&s[..n], &mut r[..n], count, &dt, op, comm)?;
            env.unstage_region(rstore, recv, n)
        })
    }

    // ------------------------------------------------------------------
    // Gather / Scatter (+v)
    // ------------------------------------------------------------------

    /// `comm.gather` over buffers; `recv` significant at root and must
    /// hold `size * count` elements.
    #[allow(clippy::too_many_arguments)]
    pub fn gather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: Option<DirectBuffer>,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let me = self.mpi.rank(comm)?;
        if me == root {
            let out = required_at_root(recv)?;
            let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, out)?;
            self.mpi
                .gather(sendbytes, Some(recvbytes), count, dt, root, comm)?;
        } else {
            let sendbytes = self.rt.direct_bytes(send)?;
            self.mpi.gather(sendbytes, None, count, dt, root, comm)?;
        }
        Ok(())
    }

    /// Array flavour of gather.
    #[allow(clippy::too_many_arguments)]
    pub fn gather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: Option<JArray<T>>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = Self::check_count(count)?;
        let n = elems * T::SIZE;
        let p = self.mpi.size(comm)?;
        let staging = self.stage_region(send, elems)?;
        self.with_staging([staging], |env, [store]| {
            env.charge_buffer_address();
            let me = env.mpi.rank(comm)?;
            if me != root {
                let s = env.rt.direct_bytes(store)?;
                env.mpi.gather(&s[..n], None, count, &dt, root, comm)?;
                return Ok(());
            }
            let out = required_at_root(recv)?;
            let rstaging = env.stage_empty(n * p);
            env.with_staging([rstaging], |env, [rstore]| {
                let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
                env.mpi
                    .gather(&s[..n], Some(&mut r[..n * p]), count, &dt, root, comm)?;
                env.unstage_region(rstore, out, n * p)
            })
        })
    }

    /// `comm.gatherv` over buffers (vectored blocking collective).
    #[allow(clippy::too_many_arguments)]
    pub fn gatherv_buffer(
        &mut self,
        send: DirectBuffer,
        sendcount: i32,
        recv: Option<DirectBuffer>,
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let me = self.mpi.rank(comm)?;
        if me == root {
            let out = required_at_root(recv)?;
            let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, out)?;
            self.mpi.gatherv(
                sendbytes,
                sendcount,
                Some(recvbytes),
                recvcounts,
                displs,
                dt,
                root,
                comm,
            )?;
        } else {
            let sendbytes = self.rt.direct_bytes(send)?;
            self.mpi.gatherv(
                sendbytes, sendcount, None, recvcounts, displs, dt, root, comm,
            )?;
        }
        Ok(())
    }

    /// Array flavour of gatherv.
    #[allow(clippy::too_many_arguments)]
    pub fn gatherv_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        sendcount: i32,
        recv: Option<JArray<T>>,
        recvcounts: &[i32],
        displs: &[i32],
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let staging = self.stage_region(send, send.len())?;
        self.with_staging([staging], |env, [store]| {
            env.charge_buffer_address();
            let me = env.mpi.rank(comm)?;
            if me != root {
                let s = &env.rt.direct_bytes(store)?[..send.byte_len()];
                env.mpi
                    .gatherv(s, sendcount, None, recvcounts, displs, &dt, root, comm)?;
                return Ok(());
            }
            let out = required_at_root(recv)?;
            let rstaging = env.stage_seeded(out)?;
            env.with_staging([rstaging], |env, [rstore]| {
                let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
                env.mpi.gatherv(
                    &s[..send.byte_len()],
                    sendcount,
                    Some(&mut r[..out.byte_len()]),
                    recvcounts,
                    displs,
                    &dt,
                    root,
                    comm,
                )?;
                env.unstage_region(rstore, out, out.byte_len())
            })
        })
    }

    /// `comm.scatter` over buffers; `send` significant at root.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_buffer(
        &mut self,
        send: Option<DirectBuffer>,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let me = self.mpi.rank(comm)?;
        if me == root {
            let src = required_at_root(send)?;
            let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(src, recv)?;
            self.mpi
                .scatter(Some(sendbytes), recvbytes, count, dt, root, comm)?;
        } else {
            let recvbytes = self.rt.direct_bytes_mut(recv)?;
            self.mpi.scatter(None, recvbytes, count, dt, root, comm)?;
        }
        Ok(())
    }

    /// Array flavour of scatter.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_array<T: Prim>(
        &mut self,
        send: Option<JArray<T>>,
        recv: JArray<T>,
        count: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        let n = recv.byte_len();
        // Seeded: elements past the received block unstage unchanged.
        let rstaging = self.stage_seeded(recv)?;
        self.with_staging([rstaging], |env, [rstore]| {
            if me == root {
                let src = required_at_root(send)?;
                let staging = env.stage_region(src, src.len())?;
                env.with_staging([staging], |env, [store]| {
                    env.charge_buffer_address();
                    let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
                    env.mpi.scatter(
                        Some(&s[..src.byte_len()]),
                        &mut r[..n],
                        count,
                        &dt,
                        root,
                        comm,
                    )?;
                    Ok(())
                })?;
            } else {
                env.charge_buffer_address();
                let r = &mut env.rt.direct_bytes_mut(rstore)?[..n];
                env.mpi.scatter(None, r, count, &dt, root, comm)?;
            }
            env.unstage_region(rstore, recv, n)
        })
    }

    /// `comm.scatterv` over buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn scatterv_buffer(
        &mut self,
        send: Option<DirectBuffer>,
        sendcounts: &[i32],
        displs: &[i32],
        recv: DirectBuffer,
        recvcount: i32,
        dt: &Datatype,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let me = self.mpi.rank(comm)?;
        if me == root {
            let src = required_at_root(send)?;
            let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(src, recv)?;
            self.mpi.scatterv(
                Some(sendbytes),
                sendcounts,
                displs,
                recvbytes,
                recvcount,
                dt,
                root,
                comm,
            )?;
        } else {
            let recvbytes = self.rt.direct_bytes_mut(recv)?;
            self.mpi.scatterv(
                None, sendcounts, displs, recvbytes, recvcount, dt, root, comm,
            )?;
        }
        Ok(())
    }

    /// Array flavour of scatterv.
    #[allow(clippy::too_many_arguments)]
    pub fn scatterv_array<T: Prim>(
        &mut self,
        send: Option<JArray<T>>,
        sendcounts: &[i32],
        displs: &[i32],
        recv: JArray<T>,
        recvcount: i32,
        root: usize,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let me = self.mpi.rank(comm)?;
        let n = recv.byte_len();
        let rstaging = self.stage_seeded(recv)?;
        self.with_staging([rstaging], |env, [rstore]| {
            if me == root {
                let src = required_at_root(send)?;
                let staging = env.stage_region(src, src.len())?;
                env.with_staging([staging], |env, [store]| {
                    env.charge_buffer_address();
                    let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
                    env.mpi.scatterv(
                        Some(&s[..src.byte_len()]),
                        sendcounts,
                        displs,
                        &mut r[..n],
                        recvcount,
                        &dt,
                        root,
                        comm,
                    )?;
                    Ok(())
                })?;
            } else {
                env.charge_buffer_address();
                let r = &mut env.rt.direct_bytes_mut(rstore)?[..n];
                env.mpi
                    .scatterv(None, sendcounts, displs, r, recvcount, &dt, root, comm)?;
            }
            env.unstage_region(rstore, recv, n)
        })
    }

    // ------------------------------------------------------------------
    // Allgather / Alltoall (+v)
    // ------------------------------------------------------------------

    /// `comm.allGather` over buffers.
    pub fn allgather_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, recv)?;
        self.mpi.allgather(sendbytes, recvbytes, count, dt, comm)?;
        Ok(())
    }

    /// Array flavour of allgather.
    pub fn allgather_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = Self::check_count(count)?;
        let n = elems * T::SIZE;
        let p = self.mpi.size(comm)?;
        let staging = self.stage_region(send, elems)?;
        let rstaging = self.stage_empty(n * p);
        self.with_staging([rstaging, staging], |env, [rstore, store]| {
            env.charge_buffer_address();
            let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
            env.mpi
                .allgather(&s[..n], &mut r[..n * p], count, &dt, comm)?;
            env.unstage_region(rstore, recv, n * p)
        })
    }

    /// `comm.allGatherv` over buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn allgatherv_buffer(
        &mut self,
        send: DirectBuffer,
        sendcount: i32,
        recv: DirectBuffer,
        recvcounts: &[i32],
        displs: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, recv)?;
        self.mpi.allgatherv(
            sendbytes, sendcount, recvbytes, recvcounts, displs, dt, comm,
        )?;
        Ok(())
    }

    /// Array flavour of allgatherv.
    #[allow(clippy::too_many_arguments)]
    pub fn allgatherv_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        sendcount: i32,
        recv: JArray<T>,
        recvcounts: &[i32],
        displs: &[i32],
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let staging = self.stage_region(send, send.len())?;
        self.with_staging([staging], |env, [store]| {
            let rstaging = env.stage_seeded(recv)?;
            env.with_staging([rstaging], |env, [rstore]| {
                env.charge_buffer_address();
                let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
                env.mpi.allgatherv(
                    &s[..send.byte_len()],
                    sendcount,
                    &mut r[..recv.byte_len()],
                    recvcounts,
                    displs,
                    &dt,
                    comm,
                )?;
                env.unstage_region(rstore, recv, recv.byte_len())
            })
        })
    }

    /// `comm.allToAll` over buffers.
    pub fn alltoall_buffer(
        &mut self,
        send: DirectBuffer,
        recv: DirectBuffer,
        count: i32,
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, recv)?;
        self.mpi.alltoall(sendbytes, recvbytes, count, dt, comm)?;
        Ok(())
    }

    /// Array flavour of alltoall.
    pub fn alltoall_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        recv: JArray<T>,
        count: i32,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let elems = Self::check_count(count)?;
        let p = self.mpi.size(comm)?;
        let n = elems * p * T::SIZE;
        let staging = self.stage_region(send, elems * p)?;
        let rstaging = self.stage_empty(n);
        self.with_staging([rstaging, staging], |env, [rstore, store]| {
            env.charge_buffer_address();
            let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
            env.mpi.alltoall(&s[..n], &mut r[..n], count, &dt, comm)?;
            env.unstage_region(rstore, recv, n)
        })
    }

    /// `comm.allToAllv` over buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv_buffer(
        &mut self,
        send: DirectBuffer,
        sendcounts: &[i32],
        sdispls: &[i32],
        recv: DirectBuffer,
        recvcounts: &[i32],
        rdispls: &[i32],
        dt: &Datatype,
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        self.charge_buffer_address();
        let (sendbytes, recvbytes) = self.rt.direct_bytes_pair(send, recv)?;
        self.mpi.alltoallv(
            sendbytes, sendcounts, sdispls, recvbytes, recvcounts, rdispls, dt, comm,
        )?;
        Ok(())
    }

    /// Array flavour of alltoallv.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv_array<T: Prim>(
        &mut self,
        send: JArray<T>,
        sendcounts: &[i32],
        sdispls: &[i32],
        recv: JArray<T>,
        recvcounts: &[i32],
        rdispls: &[i32],
        comm: CommHandle,
    ) -> BindResult<()> {
        self.binding_call();
        let dt = datatype_of::<T>();
        let staging = self.stage_region(send, send.len())?;
        self.with_staging([staging], |env, [store]| {
            let rstaging = env.stage_seeded(recv)?;
            env.with_staging([rstaging], |env, [rstore]| {
                env.charge_buffer_address();
                let (s, r) = env.rt.direct_bytes_pair(store, rstore)?;
                env.mpi.alltoallv(
                    &s[..send.byte_len()],
                    sendcounts,
                    sdispls,
                    &mut r[..recv.byte_len()],
                    recvcounts,
                    rdispls,
                    &dt,
                    comm,
                )?;
                env.unstage_region(rstore, recv, recv.byte_len())
            })
        })
    }
}
