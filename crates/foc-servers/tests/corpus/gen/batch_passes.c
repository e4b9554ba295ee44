// n=17 churn=49 sequence=3
long f(long n) {
    long k = 0;
    unsigned long a0[8];
    for (k = 0; k < 7; k++) {
        a0[k] = a0[k];
    }
}
