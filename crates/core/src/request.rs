//! Request and status objects returned by the non-blocking bindings API.

use mpisim::datatype::Datatype;
use mpisim::RecvLender;
use mpjbuf::Buffer;
use mrt::{Handle, MrtResult, Runtime};

/// Completion status (the bindings' `Status` object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JStatus {
    /// Source rank within the communicator (`status.getSource()`).
    pub source: i32,
    /// Message tag (`status.getTag()`).
    pub tag: i32,
    /// Received payload size in bytes.
    pub bytes: usize,
}

impl JStatus {
    /// `status.getCount(datatype)`: received element count.
    pub fn count(&self, dt: &Datatype) -> usize {
        if dt.size() == 0 {
            0
        } else {
            self.bytes / dt.size()
        }
    }
}

/// Type-erased description of a managed-array destination for unstaging.
#[derive(Debug)]
pub(crate) struct ArrayDest {
    /// Heap handle of the target array.
    pub handle: Handle,
    /// Byte offset within the array where element 0 of the message lands.
    pub byte_off: usize,
    /// Total byte length of the array object (for bounds checks).
    pub byte_len: usize,
}

/// What must happen when a request completes.
pub(crate) enum PostAction {
    /// No data arrives: nothing to do beyond releasing pinned staging.
    SendDone,
    /// Receive into a direct buffer: the payload lands in place.
    RecvBuffer {
        buf: mrt::DirectBuffer,
        /// User-layout span of the posted receive.
        span: usize,
    },
    /// Receive into a managed array: deposit into the staging buffer,
    /// then scatter into the array per the datatype.
    RecvArray {
        staging: Buffer,
        dest: ArrayDest,
        dt: Datatype,
        count: usize,
    },
}

impl PostAction {
    /// The storage the native library deposits this request's payload
    /// into, borrowed from `rt` in place: the user's direct buffer, or the
    /// array's packed staging. `None` when no data arrives.
    pub(crate) fn dest<'a>(&self, rt: &'a mut Runtime) -> MrtResult<Option<&'a mut [u8]>> {
        Ok(match self {
            PostAction::SendDone => None,
            PostAction::RecvBuffer { buf, span } => Some(&mut rt.direct_bytes_mut(*buf)?[..*span]),
            PostAction::RecvArray {
                staging, dt, count, ..
            } => Some(&mut rt.direct_bytes_mut(staging.store())?[..dt.size() * count]),
        })
    }
}

/// Lends `Mpi::waitall` each request's destination in place, one request
/// at a time (destinations may repeat across a batch).
pub(crate) struct Dests<'a>(pub &'a mut Runtime, pub &'a [PostAction]);

impl RecvLender for Dests<'_> {
    fn lend(&mut self, i: usize) -> Option<&mut [u8]> {
        // Every destination was checked live before the native call.
        self.1[i].dest(self.0).ok().flatten()
    }
}

/// A non-blocking operation in flight (the bindings' `Request` object).
pub struct JRequest {
    pub(crate) native: mpisim::mpi::MpiRequest,
    pub(crate) post: PostAction,
    /// Send-side staging buffer pinned for the operation's lifetime.
    /// Array sends and non-blocking collectives read their source region
    /// while the operation progresses, so the request owns the buffer
    /// until completion — the collector can run mid-flight without the
    /// pool reusing (or freeing) storage the native library still reads.
    pub(crate) pinned: Option<Buffer>,
}

impl JRequest {
    /// Whether this request is a receive (its completion carries data).
    pub fn is_recv(&self) -> bool {
        matches!(
            self.post,
            PostAction::RecvBuffer { .. } | PostAction::RecvArray { .. }
        )
    }
}

/// Result of a non-blocking `test`.
// `Pending` hands the request back by value so callers can resubmit it;
// boxing it to even out the variant sizes would change that API.
#[allow(clippy::large_enum_variant)]
pub enum TestOutcome {
    /// Completed with this status.
    Done(JStatus),
    /// Still pending; the request is handed back.
    Pending(JRequest),
}
