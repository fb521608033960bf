//! Maximum-weight matching in general graphs (the blossom algorithm).
//!
//! This crate is a from-scratch Rust implementation of Galil's O(n³)
//! primal-dual blossom algorithm, structured after Joris van Rantwijk's
//! well-known reference implementation of "Efficient algorithms for
//! finding maximum matching in graphs" (Galil, ACM Computing Surveys,
//! 1986). It is the engine behind the workspace's idealized MWPM decoder
//! — the gold-standard baseline the Promatch paper compares against.
//!
//! Weights are `i64`; the implementation doubles them internally so that
//! all dual variables stay integral, making every comparison exact.
//!
//! # Example
//!
//! ```
//! use blossom::{max_weight_matching, min_weight_perfect_matching};
//!
//! // Triangle plus a pendant: the best matching pairs (0,1) and (2,3).
//! let edges = [(0, 1, 8), (0, 2, 9), (1, 2, 10), (2, 3, 7)];
//! let mates = max_weight_matching(4, &edges, false);
//! assert_eq!(mates, vec![Some(1), Some(0), Some(3), Some(2)]);
//!
//! // Minimum-weight perfect matching on a complete 4-vertex graph.
//! let edges = [(0, 1, 3), (0, 2, 1), (0, 3, 9), (1, 2, 9), (1, 3, 1), (2, 3, 3)];
//! let pm = min_weight_perfect_matching(4, &edges).unwrap();
//! assert_eq!(pm, vec![2, 3, 0, 1]); // (0,2) and (1,3): total weight 2
//! ```

#![forbid(unsafe_code)]

mod matching;

pub use matching::{
    matching_weight, max_weight_matching, max_weight_matching_with, min_weight_perfect_matching,
    min_weight_perfect_matching_with, MatchingWorkspace,
};
