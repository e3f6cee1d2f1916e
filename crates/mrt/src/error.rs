//! Managed-runtime error conditions.

use std::fmt;

/// Errors raised by the managed runtime (the analogues of JVM exceptions
/// and JNI misuse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtError {
    /// Heap exhausted even after collection and growth
    /// (java.lang.OutOfMemoryError).
    OutOfMemory { requested: usize, heap_max: usize },
    /// Allocation attempted while a `GetPrimitiveArrayCritical` region is
    /// active (illegal JNI use: the GC is disabled).
    AllocationInCriticalRegion,
    /// Stale or foreign handle.
    BadHandle,
    /// Array or buffer index out of bounds
    /// (ArrayIndexOutOfBoundsException / IndexOutOfBoundsException).
    IndexOutOfBounds { index: usize, length: usize },
    /// Bulk operation would overrun the destination
    /// (BufferOverflowException / BufferUnderflowException).
    BufferOverflow { needed: usize, available: usize },
    /// Type confusion on a handle (wrong primitive view).
    TypeMismatch {
        expected: &'static str,
        actual: &'static str,
    },
    /// Direct buffer already freed.
    UseAfterFree,
    /// One direct buffer passed as both the source and the destination
    /// of a single operation (MPI_ERR_BUFFER: MPI forbids aliased send
    /// and receive buffers).
    AliasedBuffers,
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::OutOfMemory {
                requested,
                heap_max,
            } => write!(
                f,
                "OutOfMemoryError: {requested} bytes requested, max heap {heap_max}"
            ),
            MrtError::AllocationInCriticalRegion => {
                write!(f, "allocation inside a critical region (GC disabled)")
            }
            MrtError::BadHandle => write!(f, "invalid managed handle"),
            MrtError::IndexOutOfBounds { index, length } => {
                write!(f, "index {index} out of bounds for length {length}")
            }
            MrtError::BufferOverflow { needed, available } => {
                write!(f, "buffer overflow: needed {needed}, available {available}")
            }
            MrtError::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, found {actual}")
            }
            MrtError::UseAfterFree => write!(f, "direct buffer used after free"),
            MrtError::AliasedBuffers => {
                write!(f, "the same direct buffer passed as source and destination")
            }
        }
    }
}

impl std::error::Error for MrtError {}

/// Result alias for runtime operations.
pub type MrtResult<T> = Result<T, MrtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_details() {
        let e = MrtError::IndexOutOfBounds {
            index: 9,
            length: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let o = MrtError::OutOfMemory {
            requested: 100,
            heap_max: 50,
        };
        assert!(o.to_string().contains("OutOfMemoryError"));
    }
}
