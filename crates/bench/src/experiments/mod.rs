//! One module per experiment; `experiments -- --list` indexes their ids and
//! scope (see README, "The experiment harness").

pub mod catalog;
pub mod cond1;
pub mod cor3;
pub mod decomp;
pub mod fig2;
pub mod fig3;
pub mod model_split;
pub mod order;
pub mod pd_argmin;
pub mod thm18;
pub mod thm19;
pub mod thm2;
pub mod thm4;
