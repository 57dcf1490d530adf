use std::fmt;

/// Errors raised by the derivation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Configuration field out of range.
    InvalidConfig(String),
    /// A matrix operand had an unexpected shape.
    Shape(String),
    /// A requested materialization would exceed its byte budget (e.g. the
    /// full dense `T̂` at paper scale); stream row-blocks instead.
    Capacity {
        /// Bytes the materialization would allocate.
        required_bytes: u128,
        /// The budget it was checked against.
        budget_bytes: usize,
    },
    /// An ingest event broke a rule of the rating data model (see
    /// [`admission`](crate::admission)).
    Rejected(wot_community::Rejection),
    /// Propagated from the community layer.
    Community(wot_community::CommunityError),
    /// Propagated from the sparse-matrix layer.
    Sparse(wot_sparse::SparseError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid derive config: {msg}"),
            CoreError::Shape(msg) => write!(f, "shape error: {msg}"),
            CoreError::Capacity {
                required_bytes,
                budget_bytes,
            } => write!(
                f,
                "materializing this matrix needs {required_bytes} bytes, over the \
                 {budget_bytes}-byte budget; stream row-blocks with trust_blocks::TrustBlocks \
                 instead (or raise WOT_TRUST_DENSE_BUDGET_BYTES)"
            ),
            CoreError::Rejected(r) => write!(f, "{r}"),
            CoreError::Community(e) => write!(f, "community error: {e}"),
            CoreError::Sparse(e) => write!(f, "sparse error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Rejected(r) => Some(r),
            CoreError::Community(e) => Some(e),
            CoreError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wot_community::Rejection> for CoreError {
    fn from(r: wot_community::Rejection) -> Self {
        CoreError::Rejected(r)
    }
}

impl From<wot_community::CommunityError> for CoreError {
    fn from(e: wot_community::CommunityError) -> Self {
        CoreError::Community(e)
    }
}

impl From<wot_sparse::SparseError> for CoreError {
    fn from(e: wot_sparse::SparseError) -> Self {
        CoreError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::InvalidConfig("tolerance".into());
        assert!(e.to_string().contains("tolerance"));
        assert!(e.source().is_none());
        let e: CoreError = wot_sparse::SparseError::DimensionTooLarge(9).into();
        assert!(e.source().is_some());
        let e: CoreError =
            wot_community::CommunityError::SelfTrust(wot_community::UserId(1)).into();
        assert!(e.to_string().contains("community"));
    }
}
